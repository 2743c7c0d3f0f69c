"""Tests of the benchmark itself, not of hplax.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hplax import cli  # noqa: E402
from hplax.bvp import BoundaryData, sweep_solve  # noqa: E402
from hplax.measures import moments_to_jfraction  # noqa: E402


def _summary(plan):
    return [(r.key, r.window, r.system, r.planted_k) for r in plan.requests]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    workload = workloads.WORKLOADS[name]
    first, again = workloads.plan_stream(workload, 7), workloads.plan_stream(workload, 7)
    assert _summary(first) == _summary(again)
    assert first.pools == again.pools
    assert _summary(first) != _summary(workloads.plan_stream(workload, 8))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stream_shape(name):
    workload = workloads.WORKLOADS[name]
    plan = workloads.plan_stream(workload, 3)
    per_round = len(workload.slots)
    assert len(plan.requests) == workload.rounds * per_round
    keys = [r.key for r in plan.requests]
    assert len(keys) - len(set(keys)) == (workload.rounds - 1) * workloads.REPEATS_PER_ROUND
    for r in range(workload.rounds):
        chunk = plan.requests[r * per_round:(r + 1) * per_round]
        assert sorted(map(repr, (q.slot for q in chunk))) == sorted(map(repr, workload.slots))
    for fam, pool in plan.pools.items():
        assert len({spec.params for spec in pool}) == workload.pool[fam] ** 2


def test_planted_share_is_one_in_five():
    workload = workloads.WORKLOADS["bvp-sweep"]
    assert sum(s.planted for s in workload.slots) * 5 == len(workload.slots)


def _angelesco():
    return workloads.SystemSpec(workloads.ANGELESCO, (Fraction(-3), Fraction(-1, 2),
                                                      Fraction(1, 2), Fraction(2))).moments(40)


@pytest.mark.parametrize("k", [0, 3, 7])
def test_planted_boundary_fails_at_its_index(tmp_path, k):
    system = _angelesco()
    j1, j2 = (moments_to_jfraction(s, 17) for s in (system.s1, system.s2))
    full = BoundaryData(j1.c, j1.a, j2.c, j2.a)
    slot = workloads.Slot("solve-bvp", workloads.ANGELESCO, (8, 8), planted=True)
    req = workloads.Request(0, "k", slot, (9, 7), 0, "b.json", k)
    planted = workloads.boundary_for(full, req)
    assert sweep_solve(planted, 9, 7).failure[0] == (k, 0)

    from hplax import jsondoc
    doc, out = tmp_path / "b.json", tmp_path / "out.json"
    doc.write_text(json.dumps(jsondoc.boundary_to_doc(planted)))
    rc = cli.main(["solve-bvp", "--in", str(doc), "--window", "9", "7", "--out", str(out)])
    assert checks.check_planted(rc, json.loads(out.read_text()), k) is None
    assert checks.check_planted(rc, json.loads(out.read_text()), k + 1) is not None


def test_self_time_on_a_synthetic_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, 0, None),
        S("child", 1.0, 4.0, 0, 0, None),
        S("grandchild", 2.0, 3.0, 1, 0, None),
        S("child", 5.0, 6.5, 0, 0, None),
        S("other", 11.0, 12.0, -1, 1, None),
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_layer_metrics_count_misses_and_nesting():
    S = spans.Span
    tree = [
        S("hptable.hp_poly_det", 0.0, 4.0, -1, 0, None),
        S("hptable.s_det", 0.0, 1.0, 0, 0, None),
        S("kernel.det_exact", 0.0, 1.0, 1, 0, 3),
        S("kernel.det_exact", 1.0, 2.0, 0, 0, 4),
        S("hptable.hp_poly_det", 5.0, 6.0, -1, 0, None),          # memo hit
        S("measures.moments_to_jfraction", 7.0, 9.0, -1, spans.SETUP, None),
    ]
    got = spans.layer_metrics(tree)
    assert got["kernel.det_exact.calls"] == 2
    assert got["kernel.det_exact.ops"] == 5 + 14
    assert got["hptable.hp_poly_det.miss_ratio"] == 0.5
    assert got["hptable.s_det.miss_ratio"] == 1.0
    assert got["hptable.hp_poly_det.self_s"] == pytest.approx(2.0 + 1.0)
    assert got["measures.setup.s"] == got["measures.moments_to_jfraction.s"] == 2.0


def _bindings():
    import hplax
    modules = [m for k, m in sys.modules.items() if k == "hplax" or k.startswith("hplax.")]
    out = {}
    for module in modules:
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("hplax"):
                for attr, member in vars(value).items():
                    out[(module.__name__, key, attr)] = member
    assert hplax
    return out


def test_wrappers_are_removed_after_a_traced_call(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not before[("hplax.cli", "main")]
        from hplax import classical, hptable
        assert hptable.det_exact is classical.det_exact
        assert hptable.det_exact is not before[("hplax.hptable", "det_exact")]
        system = _angelesco()
        from hplax import jsondoc
        doc = tmp_path / "s.json"
        doc.write_text(json.dumps(jsondoc.moment_system_to_doc(system)))
        tracer.request = 0
        assert cli.main(["verify", "--in", str(doc), "--window", "2", "2",
                         "--out", str(tmp_path / "o.json")]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.finished()}
    assert {"cli.main", "kernel.det_exact", "hptable.s_det", "lax3.zcc_residual",
            "kernel.matpoly_mul", "jsondoc.decode", "jsondoc.encode"} <= names


def test_traced_counts_repeat_and_bvp_makes_no_determinant_call(tmp_path):
    workload = workloads.WORKLOADS["bvp-sweep"]

    def traced_counts():
        plan = workloads.plan_stream(workload, 5)
        run = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        run.mkdir()
        workloads.write_documents(plan, str(run))
        tracer = spans.Tracer()
        tracer.install()
        try:
            for req in plan.requests[:10]:
                tracer.request = req.rid
                cli.main(plan.argv(req, str(run), str(run / "out.json")))
        finally:
            tracer.uninstall()
        got = spans.layer_metrics(tracer.finished())
        return {k: v for k, v in got.items() if not k.endswith(("_s", ".s"))}

    first = traced_counts()
    assert first == traced_counts()
    assert first["kernel.det_exact.calls"] == 0
    assert first["lax3.zcc_residual.calls"] == 0
    assert first["bvp.sweep_solve.divisions"] > 0


def test_checks_reject_a_changed_value(tmp_path):
    system = _angelesco()
    from hplax import jsondoc
    doc = tmp_path / "s.json"
    doc.write_text(json.dumps(jsondoc.moment_system_to_doc(system)))
    results = {}
    for cmd in ("coeffs", "table"):
        out = tmp_path / f"{cmd}.json"
        assert cli.main([cmd, "--in", str(doc), "--window", "3", "2", "--out", str(out)]) == 0
        results[cmd] = json.loads(out.read_text())
    assert checks.check_coeffs(0, results["coeffs"], system, (3, 2)) is None
    assert checks.check_table(0, results["table"], system, (3, 2)) is None
    results["coeffs"]["c"][2][1] += "1"
    results["table"]["s"][2][2] = str(-Fraction(results["table"]["s"][2][2]))
    assert checks.check_coeffs(0, results["coeffs"], system, (3, 2)) is not None
    assert checks.check_table(0, results["table"], system, (3, 2)) is not None


def test_orthogonality_check_catches_a_wrong_field_value():
    system = _angelesco()
    j1, j2 = (moments_to_jfraction(s, 15) for s in (system.s1, system.s2))
    field = sweep_solve(BoundaryData(j1.c, j1.a, j2.c, j2.a), 8, 6).field
    cells = {(n, m): tuple(field.value(k, n, m) for k in "abcd")
             for n in range(9) for m in range(7)}
    assert checks.field_orthogonality(cells, system) is None
    for index in range(4):
        bad = dict(cells)
        values = list(bad[(4, 3)])
        values[index] += Fraction(1, 10 ** 12)
        bad[(4, 3)] = tuple(values)
        assert checks.field_orthogonality(bad, system) is not None


def test_elimination_determinant_matches_a_known_value():
    assert checks.det_by_elimination([[0, 2], [3, 4]]) == -6
    assert checks.det_by_elimination([[1, 2], [2, 4]]) == 0
    assert checks.hankel([Fraction(1, k + 1) for k in range(5)], 2, 0) == Fraction(1, 12)


def test_benchmark_json_names_every_metric_the_runs_print():
    import run
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    layer_names = list(spans.layer_metrics([])) + [
        "cli.out_bytes", "out.max_bits", "out.mean_bits", "trace.overhead_frac"]
    assert [m["name"] for m in bench["per_layer"]] == layer_names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
