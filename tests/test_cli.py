import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hplax import bvp, jsondoc
from hplax.bvp import (BoundaryData, SweepReport, boundary_from_field,
                       field_from_moments)
from hplax.cli import main
from hplax.hptable import HPTable
from hplax.kernel import Poly
from hplax.measures import (MeasureModel, MomentSystem, make_angelesco,
                            moments_to_jfraction)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def angelesco_input(tmp_path):
    return write_json(tmp_path / "measures.json", {
        "mu1": {"type": "interval", "lo": "-2", "hi": "-1"},
        "mu2": {"type": "interval", "lo": "1", "hi": "2"},
    })


def run_gen(tmp_path, angelesco_input, order=10):
    out = tmp_path / "system.json"
    code = main(["gen", "--system", "angelesco", "--in", angelesco_input,
                 "--order", str(order), "--out", str(out)])
    assert code == 0
    return out


class TestGen:
    def test_angelesco_document(self, tmp_path, angelesco_input):
        out = run_gen(tmp_path, angelesco_input)
        doc = json.loads(out.read_text())
        assert doc["kind"] == "moment_system"
        assert doc["convention"] == "cauchy"
        assert doc["s1"][1] == "-3/2"
        assert doc["count"] == 10

    def test_window_sizes_the_order(self, tmp_path, angelesco_input):
        out = tmp_path / "system.json"
        code = main(["gen", "--system", "angelesco", "--in", angelesco_input,
                     "--window", "2", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["count"] == 2 * 4 + 4

    def test_nikishin(self, tmp_path):
        inp = write_json(tmp_path / "nik.json", {
            "sigma1": {"type": "discrete",
                       "atoms": [["1", "1/2"], ["2", "1/2"]]},
            "sigma2": {"type": "discrete",
                       "atoms": [["-2", "1/2"], ["-1", "1/2"]]},
        })
        out = tmp_path / "system.json"
        assert main(["gen", "--system", "nikishin", "--in", inp,
                     "--order", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["s2"][0] == "17/48"

    def test_jfraction_source(self, tmp_path, system_a):
        j1 = moments_to_jfraction(list(system_a.s1), 4)
        j2 = moments_to_jfraction(list(system_a.s2), 4)
        inp = write_json(tmp_path / "jf.json", {
            "f1": jsondoc.jfraction_to_doc(j1),
            "f2": jsondoc.jfraction_to_doc(j2),
        })
        out = tmp_path / "system.json"
        assert main(["gen", "--system", "jfraction", "--in", inp,
                     "--order", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["s1"] == [str(x) for x in system_a.s1[:8]]

    def test_moments_source_is_truncated(self, tmp_path, system_a):
        inp = write_json(tmp_path / "m.json",
                         jsondoc.moment_system_to_doc(system_a))
        out = tmp_path / "system.json"
        assert main(["gen", "--system", "moments", "--in", inp,
                     "--order", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["count"] == 3
        assert doc["s2"] == [str(x) for x in system_a.s2[:3]]
        assert main(["gen", "--system", "moments", "--in", inp,
                     "--window", "1", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["count"] == 2 * 3 + 4
        assert doc["s1"] == [str(x) for x in system_a.s1[:10]]

    def test_moments_source_too_short_exit_5(self, tmp_path, capsys):
        inp = write_json(tmp_path / "m.json", {"s1": ["1", "2", "3", "4"],
                                               "s2": ["1", "0", "1", "0"]})
        out = tmp_path / "system.json"
        for extra in (["--order", "5"], ["--window", "0", "1"]):
            assert main(["gen", "--system", "moments", "--in", inp,
                         "--out", str(out)] + extra) == 5
            assert "truncation" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--system", "angelesco", "--in", str(bad),
                     "--order", "4"]) == 2

    def test_overlapping_supports_exit(self, tmp_path):
        inp = write_json(tmp_path / "m.json", {
            "mu1": {"type": "interval", "lo": "0", "hi": "1"},
            "mu2": {"type": "interval", "lo": "0", "hi": "1"},
        })
        code = main(["gen", "--system", "angelesco", "--in", inp, "--order", "4"])
        assert code not in (0, None)


class TestTableAndCoeffs:
    def test_table_values(self, tmp_path, angelesco_input):
        system = run_gen(tmp_path, angelesco_input)
        out = tmp_path / "table.json"
        assert main(["table", "--in", str(system), "--window", "2", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["s"][1][1] == "3"
        assert doc["p"][1][1] == ["-7/3", "0", "1"]
        s_grid, p_grid, window = jsondoc.table_from_doc(doc)
        assert window == (2, 2)
        assert s_grid[1][1] == 3
        assert jsondoc.table_to_doc(s_grid, p_grid, window) == doc

    def test_coeffs_roundtrip(self, tmp_path, angelesco_input, system_a):
        system = run_gen(tmp_path, angelesco_input, order=14)
        out = tmp_path / "field.json"
        assert main(["coeffs", "--in", str(system), "--window", "2", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        field = jsondoc.field_from_doc(doc)
        want = field_from_moments(system_a, 2, 2)
        equal, diff = field.same_grids(want)
        assert equal, diff
        assert jsondoc.field_from_doc(jsondoc.field_to_doc(field)).same_grids(field)[0]

    def test_not_normal_exit_3(self, tmp_path):
        moments = [str(F(1, k + 1)) for k in range(12)]
        system = write_json(tmp_path / "dup.json", {
            "kind": "moment_system", "convention": "cauchy",
            "label": "dup", "count": 12, "s1": moments, "s2": moments,
        })
        assert main(["coeffs", "--in", system, "--window", "1", "1"]) == 3

    @pytest.mark.parametrize("command", ["table", "coeffs", "verify"])
    def test_negative_window_exit_2(self, tmp_path, angelesco_input, command):
        system = run_gen(tmp_path, angelesco_input)
        out = tmp_path / "out.json"
        assert main([command, "--in", str(system), "--window", "-1", "2",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_order_exit_2(self, tmp_path, angelesco_input):
        out = tmp_path / "out.json"
        assert main(["gen", "--system", "angelesco", "--in", angelesco_input,
                     "--order", "-1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_truncation_exit_5(self, tmp_path, angelesco_input):
        system = run_gen(tmp_path, angelesco_input, order=4)
        assert main(["table", "--in", str(system), "--window", "4", "4"]) == 5


class TestSolveBvp:
    def test_ok_and_roundtrip(self, tmp_path, system_a):
        field = field_from_moments(system_a, 5, 5)
        boundary = boundary_from_field(field, 4)
        inp = write_json(tmp_path / "bd.json", jsondoc.boundary_to_doc(boundary))
        parsed = jsondoc.boundary_from_doc(json.loads((tmp_path / "bd.json").read_text()))
        assert parsed == boundary
        out = tmp_path / "report.json"
        assert main(["solve-bvp", "--in", inp, "--window", "2", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "ok"
        swept = jsondoc.field_from_doc(doc["field"])
        assert swept.same_grids(field)[0]

    def test_degenerate_exit_4_names_origin(self, tmp_path, system_a):
        field = field_from_moments(system_a, 5, 5)
        boundary = boundary_from_field(field, 4)
        bad = BoundaryData(c_row=(boundary.d_col[0],) + boundary.c_row[1:],
                           a_row=boundary.a_row,
                           d_col=boundary.d_col,
                           b_col=boundary.b_col)
        inp = write_json(tmp_path / "bd.json", jsondoc.boundary_to_doc(bad))
        out = tmp_path / "report.json"
        assert main(["solve-bvp", "--in", inp, "--window", "2", "2",
                     "--out", str(out)]) == 4
        doc = json.loads(out.read_text())
        assert doc["status"] == "non_perfect_boundary"
        assert doc["failure_index"] == [0, 0]

    def test_zero_subdiagonal_exit_3(self, tmp_path, system_a, capsys):
        # BoundaryData refuses the document before any sweep, so there is no
        # lattice index to report under exit 4
        boundary = boundary_from_field(field_from_moments(system_a, 5, 5), 4)
        doc = jsondoc.boundary_to_doc(boundary)
        doc["a_row"][1] = "0"
        inp = write_json(tmp_path / "bd.json", doc)
        out = tmp_path / "report.json"
        assert main(["solve-bvp", "--in", inp, "--window", "2", "2",
                     "--out", str(out)]) == 3
        assert "degenerate data" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_end_to_end(self, tmp_path, angelesco_input):
        system = run_gen(tmp_path, angelesco_input, order=2 * 6 + 4)
        out = tmp_path / "verify.json"
        assert main(["verify", "--in", str(system), "--window", "3", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["grids_equal"] is True
        assert doc["zcc_max_residual_degree"] == "zero"
        assert doc["consistency_residuals"] == "0"
        assert doc["orthogonality_residuals"] == "0"


class TestQd:
    def test_grids_and_residuals(self, tmp_path):
        moments = [str(F(1, k + 1)) for k in range(16)]
        inp = write_json(tmp_path / "mom.json", {"moments": moments})
        out = tmp_path / "qd.json"
        assert main(["qd", "--in", inp, "--window", "1", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["v"][0][0] == "1/2"
        assert doc["w"][0][0] == "1/2"
        assert doc["zcc2_residual"] == "zero"


class TestDocRoundtrips:
    def test_moment_system(self, system_a):
        doc = jsondoc.moment_system_to_doc(system_a)
        assert jsondoc.moment_system_from_doc(doc) == system_a

    def test_window_rejects_booleans(self, tmp_path, angelesco_input):
        system = run_gen(tmp_path, angelesco_input)
        out = tmp_path / "table.json"
        assert main(["table", "--in", str(system), "--window", "1", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert jsondoc.table_from_doc(doc)[2] == (1, 1)
        for window in ([True, 1], [1, False]):
            doc["window"] = window
            with pytest.raises(jsondoc.ParseError):
                jsondoc.table_from_doc(doc)

    def test_table_rows_must_match_window(self, tmp_path, angelesco_input):
        system = run_gen(tmp_path, angelesco_input)
        out = tmp_path / "table.json"
        assert main(["table", "--in", str(system), "--window", "1", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["s"][1].append(doc["s"][0].pop())          # row lengths 1 and 3
        with pytest.raises(jsondoc.ParseError):
            jsondoc.table_from_doc(doc)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                    min_size=4, max_size=4, unique=True),
           st.integers(0, 3), st.integers(0, 3), st.sampled_from(["s", "p", "c"]))
    def test_random_angelesco_round_trips(self, ends, nw, mw, shortened):
        lo1, hi1, lo2, hi2 = sorted(ends)
        system = make_angelesco(MeasureModel.interval(lo1, hi1),
                                MeasureModel.interval(lo2, hi2), 2 * (nw + mw) + 4)
        table = HPTable(system, nw + 1, mw + 1)
        s_grid = [[table.s_det(n, m) for m in range(mw + 1)] for n in range(nw + 1)]
        p_grid = [[table.hp_poly_det(n, m) for m in range(mw + 1)] for n in range(nw + 1)]
        table_doc = jsondoc.table_to_doc(s_grid, p_grid, (nw, mw))
        assert jsondoc.table_from_doc(table_doc) == (s_grid, p_grid, (nw, mw))
        field = field_from_moments(system, nw, mw)
        field_doc = jsondoc.field_to_doc(field)
        assert jsondoc.field_from_doc(field_doc).same_grids(field) == (True, None)

        doc, decode = ((field_doc, jsondoc.field_from_doc) if shortened == "c"
                       else (table_doc, jsondoc.table_from_doc))
        doc[shortened][nw].pop()
        with pytest.raises(jsondoc.ParseError):
            decode(doc)

    @pytest.mark.parametrize("entry", ["12", ["1", "2"], ["3"], ["1", "0", "1"]])
    def test_table_p_entry_must_be_a_monic_list(self, entry):
        doc = {"kind": "hp_table", "window": [0, 1], "s": [["1", "2"]],
               "p": [[["1"], ["-2", "1"]]]}
        assert jsondoc.table_from_doc(doc)[1][0][1] == Poly.of(-2, 1)
        doc["p"][0][1] = entry
        with pytest.raises(jsondoc.ParseError):
            jsondoc.table_from_doc(doc)

    def test_rejects_floats(self):
        with pytest.raises(jsondoc.ParseError):
            jsondoc.rat_parse(0.5)

    def test_bare_integers(self):
        assert jsondoc.rat_str(F(3)) == "3"
        assert jsondoc.rat_parse("3") == 3
        assert jsondoc.rat_parse(3) == 3
        assert jsondoc.rat_parse("-3/2") == F(-3, 2)


def boundary_doc(system):
    return jsondoc.boundary_to_doc(
        boundary_from_field(field_from_moments(system, 5, 5), 4))


def bump_sweep(monkeypatch):
    """Make the sweep route of verify return c[1, 1] off by one."""
    sweep = bvp.sweep_solve

    def bumped(boundary, n_max, m_max):
        report = sweep(boundary, n_max, m_max)
        field = report.field
        return SweepReport(field.replace("c", 1, 1, field.c(1, 1) + 1),
                           report.divisions_checked)

    monkeypatch.setattr(bvp, "sweep_solve", bumped)


def zero_subdiagonal(system):
    doc = boundary_doc(system)
    doc["a_row"][1] = "0"
    return doc


def planted(system):
    doc = boundary_doc(system)
    doc["c_row"][0] = doc["d_col"][0]       # c - d vanishes at the origin
    return doc


ANGELESCO = {"mu1": {"type": "interval", "lo": "-2", "hi": "-1"},
             "mu2": {"type": "interval", "lo": "1", "hi": "2"}}
DUPLICATED = [str(F(1, k + 1)) for k in range(12)]

# (id, command, input document built from system_a, window, exit code,
#  stderr fragment); every README exit code appears at least once
EXIT_TABLE = [
    ("gen", ["gen", "--system", "angelesco", "--order", "6"],
     lambda s: ANGELESCO, None, 0, ""),
    ("verify", ["verify"], jsondoc.moment_system_to_doc, (1, 1), 0, ""),
    ("solve-bvp", ["solve-bvp"], boundary_doc, (2, 2), 0, ""),
    ("qd", ["qd"], lambda s: {"moments": DUPLICATED}, (1, 1), 0, ""),
    ("verify-mismatch", ["verify"], jsondoc.moment_system_to_doc, (2, 2), 1,
     "disagree at c[1, 1]"),
    ("negative-window", ["table"], jsondoc.moment_system_to_doc, (-1, 2), 2,
     "nonnegative"),
    ("qd-moments-string", ["qd"], lambda s: {"moments": "1111111"}, (1, 1), 2,
     "parse error"),
    ("not-normal", ["coeffs"],
     lambda s: jsondoc.moment_system_to_doc(MomentSystem(DUPLICATED, DUPLICATED)),
     (1, 1), 3, "not normal"),
    ("overlapping-supports", ["gen", "--system", "angelesco", "--order", "4"],
     lambda s: {"mu1": ANGELESCO["mu1"], "mu2": ANGELESCO["mu1"]}, None, 3,
     "degenerate data"),
    ("nikishin-pole", ["gen", "--system", "nikishin", "--order", "4"],
     lambda s: {"sigma1": {"type": "discrete", "atoms": [["1", "1"], ["2", "1"]]},
                "sigma2": {"type": "discrete", "atoms": [["2", "1"]]}},
     None, 3, "degenerate data"),
    ("zero-subdiagonal", ["solve-bvp"], zero_subdiagonal, (2, 2), 3,
     "degenerate data"),
    ("planted-boundary", ["solve-bvp"], planted, (2, 2), 4,
     "non-perfect boundary"),
    ("short-moments", ["table"],
     lambda s: jsondoc.moment_system_to_doc(MomentSystem(s.s1[:4], s.s2[:4])),
     (4, 4), 5, "truncation"),
    ("short-boundary", ["solve-bvp"], boundary_doc, (3, 2), 5, "truncation"),
]


@pytest.mark.parametrize("argv, build, window, code, fragment",
                         [case[1:] for case in EXIT_TABLE],
                         ids=[case[0] for case in EXIT_TABLE])
def test_exit_code_table(tmp_path, system_a, monkeypatch, capsys,
                         argv, build, window, code, fragment):
    if code == 1:
        bump_sweep(monkeypatch)
    argv = argv + ["--in", write_json(tmp_path / "in.json", build(system_a))]
    if window is not None:
        argv += ["--window", *map(str, window)]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == code
    assert fragment in capsys.readouterr().err
    if code in (2, 3, 5):
        assert not out.exists()
