import contextlib
import hashlib
import io
import json
import re
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hplax import bvp, classical, cli, jsondoc, kernel, lax3, nnrr
from hplax.bvp import (BoundaryData, SweepReport, boundary_from_field,
                       boundary_from_moments, field_from_moments)
from hplax.cli import main
from hplax.errors import HplaxError
from hplax.hptable import HPTable
from hplax.kernel import MatPoly, Poly
from hplax.measures import (JFraction, MeasureModel, MomentSystem, make_angelesco,
                            make_nikishin, measure_moments, moments_to_jfraction)


def write_json(path, doc):
    """Write doc as JSON text, or bytes as they are."""
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
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

    def test_order_zero_writes_an_empty_system(self, tmp_path, system_a):
        j = jsondoc.jfraction_to_doc(moments_to_jfraction(list(system_a.s1), 2))
        inp = write_json(tmp_path / "jf.json", {"f1": j, "f2": j})
        out = tmp_path / "system.json"
        assert main(["gen", "--system", "jfraction", "--in", inp,
                     "--order", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["count"], doc["s1"], doc["s2"]) == (0, [], [])

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


def table_doc_of(s_grid, p_grid, window):
    """The hp_table document of grids of Fractions and Polys, each entry's
    text str(Fraction): the oracle of jsondoc.table_to_doc, which writes the
    text from the table's integers."""
    return {"kind": "hp_table", "convention": "cauchy", "window": list(window),
            "s": [[str(v) for v in row] for row in s_grid],
            "p": [[[str(c) for c in poly.coeffs] for poly in row] for row in p_grid]}


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
        assert table_doc_of(s_grid, p_grid, window) == doc

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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=13, max_size=13),
                    min_size=2, max_size=2),
           st.sampled_from([(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]))
    @example([[3, 1, -3, -2, -3, 2, 0, 3, -2, -2, 2, -3, 1],
              [1, 2, 3, 2, 1, 2, 0, 0, -2, 0, 0, 1, 1]], (2, 1))
    def test_never_exits_1_on_zero_laden_systems(self, tmp_path_factory, tails,
                                                 window):
        # s0 = 1 and small integers, so many minors vanish; exit 1 is for
        # internal mismatches only.  The example is normal on the window,
        # and the sweep to level N + M stops at gap (0, 2): S(1, 3) = 0.
        system = MomentSystem((1, *tails[0]), (1, *tails[1]))
        path = write_json(tmp_path_factory.mktemp("verify") / "in.json",
                          jsondoc.moment_system_to_doc(system))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", "--in", path, "--window", *map(str, window)])
        assert code in (0, 3), err.getvalue()
        named = re.search(r"index \((\d+), (\d+)\) is not normal", err.getvalue())
        if named:
            n, m = map(int, named.groups())
            assert HPTable(system, n, m).s_det(n, m) == 0


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


def test_stdin_input_writes_the_bytes_of_a_file_input(tmp_path, capsys, monkeypatch, system_a):
    path = write_json(tmp_path / "system.json", jsondoc.moment_system_to_doc(system_a))
    argv = ["coeffs", "--window", "2", "2", "--in"]
    assert main(argv + [path]) == 0
    from_file = capsys.readouterr().out
    with open(path, encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    assert main(argv + ["-"]) == 0
    assert capsys.readouterr().out == from_file


# (command, patched owner, attribute, replacement, report field, value it reads)
NONZERO_RESIDUALS = [
    ("verify", HPTable, "orthogonality_residuals", lambda self, n, m: ([F(-2, 3)], []),
     "orthogonality_residuals", "2/3"),
    ("verify", bvp, "zero_curvature_holds", lambda table, field, n, m: False,
     "zcc_max_residual_degree", "nonzero"),
    ("qd", classical, "zcc2_residual", lambda qd, n, k: (0, 1), "zcc2_residual", "nonzero"),
]


@pytest.mark.parametrize("command, owner, attr, replacement, field, value", NONZERO_RESIDUALS,
                         ids=[case[2] for case in NONZERO_RESIDUALS])
def test_a_nonzero_residual_exits_1_with_its_report(tmp_path, capsys, monkeypatch, system_a,
                                                    command, owner, attr, replacement,
                                                    field, value):
    doc = ({"moments": DUPLICATED} if command == "qd"
           else jsondoc.moment_system_to_doc(system_a))
    path = write_json(tmp_path / "in.json", doc)
    monkeypatch.setattr(owner, attr, replacement)
    assert main([command, "--in", path, "--window", "1", "1"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)[field] == value and err == ""


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
        table_doc = jsondoc.table_to_doc(table, (nw, mw))
        assert table_doc == table_doc_of(s_grid, p_grid, (nw, mw))
        assert jsondoc.table_from_doc(table_doc) == (s_grid, p_grid, (nw, mw))
        field = field_from_moments(system, nw, mw)
        field_doc = jsondoc.field_to_doc(field)
        assert jsondoc.field_from_doc(field_doc).same_grids(field) == (True, None)

        doc, decode = ((field_doc, jsondoc.field_from_doc) if shortened == "c"
                       else (table_doc, jsondoc.table_from_doc))
        doc[shortened][nw].pop()
        with pytest.raises(jsondoc.ParseError):
            decode(doc)

    @pytest.mark.parametrize("decode", ["table", "field"])
    def test_decoders_refuse_another_convention(self, system_a, decode):
        decode, doc = {
            "table": (jsondoc.table_from_doc,
                      jsondoc.table_to_doc(HPTable(system_a, 2, 2), (1, 1))),
            "field": (jsondoc.field_from_doc,
                      jsondoc.field_to_doc(field_from_moments(system_a, 1, 1)))}[decode]
        decode(doc)
        with pytest.raises(jsondoc.ParseError, match="convention 'not-cauchy'"):
            decode({**doc, "convention": "not-cauchy"})

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
            jsondoc.rat(0.5)

    def test_bare_integers(self):
        assert jsondoc.rat_str(F(3)) == "3"
        assert jsondoc.rat("3") == 3
        assert jsondoc.rat(3) == 3
        assert jsondoc.rat("-3/2") == F(-3, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2 ** 2000, 2 ** 2000),
           st.integers(-2 ** 2000, 2 ** 2000).filter(bool),
           st.sampled_from([1, -1, 6, -2 ** 61 + 1, 3 ** 400]))
    @example(0, -7, 1)
    @example(-6, -4, 1)
    @example(5, -1, 1)
    @example(12, 3, 1)
    def test_ratio_str_is_the_text_of_the_fraction(self, num, den, common):
        # signed, zero and unreduced pairs, up to about 2,000 bits a side
        assert jsondoc.ratio_str(num * common, den * common) == str(F(num, den))

    def test_ratio_str_refuses_a_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            jsondoc.ratio_str(3, 0)

    def test_table_forms_no_polynomial(self, tmp_path, monkeypatch, system_a):
        # the table's text is made from its integers, not from P(n, m)
        calls = []
        monic = Poly.monic

        def counting(ints):
            calls.append(len(ints))
            return monic(ints)

        monkeypatch.setattr(Poly, "monic", staticmethod(counting))
        path = write_json(tmp_path / "system.json", jsondoc.moment_system_to_doc(system_a))
        out = tmp_path / "table.json"
        assert main(["table", "--in", path, "--window", "4", "4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["p"][4][4][-1] == "1"
        assert calls == []


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
GEN_MOMENTS = ["gen", "--system", "moments", "--order", "8"]

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
    ("gen-without-count", ["gen", "--system", "angelesco"], lambda s: ANGELESCO, None, 2,
     "parse error: gen needs --order K"),
    ("moment-system-kind", ["verify"],
     lambda s: {**jsondoc.moment_system_to_doc(s), "kind": "boundary_data"}, (1, 1), 2,
     "parse error: expected a moment_system"),
    ("boundary-kind", ["solve-bvp"], lambda s: {**boundary_doc(s), "kind": "moment_system"},
     (2, 2), 2, "parse error: expected a boundary_data"),
    ("atoms-not-a-list", ["gen", "--system", "nikishin", "--order", "4"],
     lambda s: {"sigma1": {"type": "discrete", "atoms": "11"},
                "sigma2": {"type": "discrete", "atoms": [["-1", "1"]]}},
     None, 2, "parse error: discrete measure atoms must be a sequence"),
    ("unknown-measure-type", ["gen", "--system", "angelesco", "--order", "4"],
     lambda s: {**ANGELESCO, "mu1": {"type": "normal"}}, None, 2,
     "parse error: unknown measure type"),
    ("unequal-sequences", ["verify"],
     lambda s: {**jsondoc.moment_system_to_doc(s), "s2": [str(x) for x in s.s2[:-1]]},
     (1, 1), 2, "differ in length"),
    ("gen-count-not-int", GEN_MOMENTS,
     lambda s: {**jsondoc.moment_system_to_doc(s), "count": "abc"}, None, 2,
     "parse error: count 'abc'"),
    ("gen-count-not-the-length", GEN_MOMENTS,
     lambda s: {**jsondoc.moment_system_to_doc(MomentSystem(s.s1[:12], s.s2[:12])),
                "count": 99}, None, 2, "parse error: count 99"),
    ("gen-convention", GEN_MOMENTS,
     lambda s: {**jsondoc.moment_system_to_doc(s), "convention": "not-cauchy"}, None, 2,
     "parse error: convention 'not-cauchy'"),
    ("gen-kind", GEN_MOMENTS,
     lambda s: {**jsondoc.moment_system_to_doc(s), "kind": "boundary_data"}, None, 2,
     "parse error: expected a moment_system"),
    ("gen-label-null", GEN_MOMENTS,
     lambda s: {**jsondoc.moment_system_to_doc(s), "label": None}, None, 2,
     "parse error: label None"),
    ("moment-system-count-bool", ["verify"],
     lambda s: {**jsondoc.moment_system_to_doc(s), "count": True}, (1, 1), 2,
     "parse error: count True"),
    ("boundary-convention", ["solve-bvp"],
     lambda s: {**boundary_doc(s), "convention": "not-cauchy"}, (2, 2), 2,
     "parse error: convention"),
    ("not-utf-8", ["table"],
     lambda s: b"\xff\xfe" + json.dumps(jsondoc.moment_system_to_doc(s)).encode("utf-16-le"),
     (1, 1), 2, "parse error"),
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
    ("jfraction-depth-zero", ["gen", "--system", "jfraction", "--order", "3"],
     lambda s: {"f1": {"c": [], "a": [], "s0": "1"},
                "f2": {"c": ["1"], "a": [], "s0": "1"}}, None, 3, "degenerate data"),
    ("jfraction-zero-s0", ["gen", "--system", "jfraction", "--order", "3"],
     lambda s: {"f1": {"c": ["1"], "a": [], "s0": "0"},
                "f2": {"c": ["1"], "a": [], "s0": "1"}}, None, 3,
     "degenerate data: J-fraction total mass s0"),
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


# a moment longer than the 4,300 digits the interpreter converts between
# text and int by default
LONG = "7" * 5000


@pytest.mark.parametrize("limit", [4300, 640, 0])
def test_a_long_integer_passes_and_the_digit_limit_comes_back(tmp_path, capsys, system_a,
                                                               limit):
    # gen writes the 5,000 digits back unchanged, and a bad value of that
    # length exits 2 with a short message; after both exits the caller's
    # digit limit is what it was
    doc = jsondoc.moment_system_to_doc(system_a)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for value, code in ((LONG, 0), (LONG + "x", 2)):
            doc["s1"][0] = value
            path = write_json(tmp_path / "in.json", doc)
            assert main(GEN_MOMENTS + ["--in", path]) == code
            assert sys.get_int_max_str_digits() == limit
            out, err = capsys.readouterr()
            if code == 0:
                assert json.loads(out)["s1"][0] == LONG and err == ""
            else:
                assert out == "" and err == (
                    f"parse error: bad rational '{LONG[:39]}... (5003 characters)\n")
    finally:
        sys.set_int_max_str_digits(before)


# -- the writer ----------------------------------------------------------------

# id -> (argv, input document built from system_a, exit code); every
# subcommand, and a solve-bvp report written before its exit 4
WRITER_CASES = {
    "gen": (["gen", "--system", "moments", "--order", "8"],
            jsondoc.moment_system_to_doc, 0),
    "table": (["table", "--window", "2", "2"], jsondoc.moment_system_to_doc, 0),
    "coeffs": (["coeffs", "--window", "2", "2"], jsondoc.moment_system_to_doc, 0),
    "verify": (["verify", "--window", "2", "2"], jsondoc.moment_system_to_doc, 0),
    "qd": (["qd", "--window", "2", "1"],
           lambda s: {"moments": [jsondoc.rat_str(x) for x in s.s1]}, 0),
    "solve-bvp": (["solve-bvp", "--window", "2", "2"], boundary_doc, 0),
    "solve-bvp-exit-4": (["solve-bvp", "--window", "2", "2"], planted, 4),
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_out_dash_writes_the_bytes_of_out_path(tmp_path, capsys, system_a, case):
    argv, build, code = WRITER_CASES[case]
    argv = argv + ["--in", write_json(tmp_path / "in.json", build(system_a))]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert main(argv + ["--out", "-"]) == code
    assert capsys.readouterr().out.encode() == out.read_bytes() != b""


def test_the_writer_holds_no_copy_of_the_text(tmp_path):
    # a report-shaped document of over 2 MB, written through the CLI's one
    # writer; a writer that formed the text first would hold it (and its
    # chunks) whole, over the document's size in traced memory
    doc = {"kind": "sweep_report", "field": {
        kind: [[f"{7 * n + m + 1}/{3 ** (n % 40) + m}" for m in range(60)]
               for n in range(400)] for kind in "abcd"}}
    size = len(json.dumps(doc, indent=2)) + 1
    assert size > 2 * 2 ** 20
    path = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        cli._write_doc(doc, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size
    assert peak < size / 2, (peak, size)


# -- pinned CLI bytes ----------------------------------------------------------


def _angelesco(count):
    return make_angelesco(MeasureModel.interval(-2, -1), MeasureModel.interval(1, 2),
                          count)


def _nikishin():
    sigma1 = MeasureModel.discrete([(k, 1) for k in range(1, 15)])
    sigma2 = MeasureModel.discrete([(-k, 1) for k in range(1, 8)])
    return make_nikishin(sigma1, sigma2, 32)


PINNED_SYSTEMS = {
    "angelesco": lambda: _angelesco(30),
    "nikishin": _nikishin,
    "duplicated": lambda: MomentSystem(*[tuple(F(1, k + 1) for k in range(20))] * 2),
    "short": lambda: _angelesco(8),
    "long": lambda: _angelesco(60),
    # S(0, 2), S(0, 3) and S(1, 2) vanish; deeper indices of those columns do not
    "zero-laden": lambda: MomentSystem(
        (2, 1, 1, 2, 0, -1, 0, 0, 0, 0, 1, -1, 0, -1, 2, 0),
        (3, 0, 0, 0, -1, 1, 0, -1, 0, 0, 0, 3, 3, -1, 0, 0), label="zero-laden"),
    # the (2, 1) window is normal; S(0, 4), read for the boundary, is not
    "axis-zero": lambda: MomentSystem((2, 1, -1, 0, 0, 1, 0, 1, 2, 0),
                                      (1, -1, 2, 1, 2, 0, -1, -1, -1, 0)),
    # at window (1, 2) the sweep stops at gap (2, 0), and S(3, 1) vanishes
    "gap-zero": lambda: MomentSystem((2, 1, -1, -1, 2, -1, 1, 1, 0, 2),
                                     (-1, 0, -1, 2, -1, 2, 1, 2, 2, -1)),
}

# (system, command, window) -> (exit code, sha256 of stdout, sha256 of stderr)
PINNED_CLI = {
    ('angelesco', 'table', (3, 3)): (0,
        'f40640181beb9d709fb8a565d22cf9458a8b64cce2ca16ea1646e33aba50f19b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('angelesco', 'table', (5, 2)): (0,
        '346aae64daf3df873c2352876641c1c9bc0373539e9ddc014cb205fc94378cab',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('angelesco', 'coeffs', (3, 3)): (0,
        '0a1e9a44352eca88c1560cf712296396a42ad13c0c45782d29abf0b99b53a32d',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('angelesco', 'verify', (2, 2)): (0,
        '6031d9401ff2b24b97d4def5874da108e8e8dce16949ff130ebb719e386b321c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('nikishin', 'table', (3, 3)): (0,
        '2282cf0ba75107801d0d2898bc72eb0de156d50edf1e88bf711a9e128d4b1611',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('nikishin', 'coeffs', (3, 3)): (0,
        '31df8ab0f302cb60a1fa9b18c51395825a05ae58c50eb78f86eb838e0ecee381',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('nikishin', 'verify', (2, 2)): (0,
        '6031d9401ff2b24b97d4def5874da108e8e8dce16949ff130ebb719e386b321c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('duplicated', 'table', (2, 2)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6d063d1e0721a755f530e09747cefba6b7d8e0b9f2a1b561ec8fa5016f23c6b2'),
    ('duplicated', 'coeffs', (2, 2)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6d063d1e0721a755f530e09747cefba6b7d8e0b9f2a1b561ec8fa5016f23c6b2'),
    ('duplicated', 'verify', (1, 1)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6d063d1e0721a755f530e09747cefba6b7d8e0b9f2a1b561ec8fa5016f23c6b2'),
    ('short', 'table', (2, 2)): (0,
        'bf5f4ed5ddd5f18b728fb80ba6ffd0b474dd2668ca003849abd7b9c9a323fa15',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('short', 'table', (3, 3)): (5,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c4d6ff5f28340557339fc201ff27f8b9713324d81e85a28e47f2f74fe266b5f7'),
    ('short', 'table', (4, 4)): (5,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '239d9d4f0910a3040677f94c5494cebb680ea375facc4a12bd91e75ab0dec732'),
    ('short', 'coeffs', (2, 2)): (0,
        '100930438e7817f483a1dc2866a57da6f4cde429e6c4404354c00c82506d9896',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('short', 'verify', (2, 2)): (5,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'eff2b9d661e6025973bfd90e0a06e1b6cf21d4a008b7c29365c592b9a80ba830'),
    ('long', 'table', (4, 4)): (0,
        'eab06eea7b0dc721c4d65707320e89016f5d281040fae7667dccb56a1eb335dc',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('long', 'coeffs', (4, 4)): (0,
        '2e8ea2ffe0dbfd9559eca1d62cd9a2722d5fe303449185ce7cc4f78c3f4fd143',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('long', 'verify', (3, 3)): (0,
        '55098f0cb35b0b98b3886315ae769bcc2bae2bdf0189d565b3376fe24522ba69',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('long', 'table', (8, 8)): (0,
        '5258b5607698438ccd2243084283e26bc9db0603b87b2c8259f671c64eb14fd7',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('angelesco', 'verify', (3, 3)): (0,
        '55098f0cb35b0b98b3886315ae769bcc2bae2bdf0189d565b3376fe24522ba69',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('nikishin', 'table', (6, 2)): (0,
        'd9eeadea5b962c1641feedb652772c6548152f60f559e7f373e9c6a389bad2b4',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('zero-laden', 'table', (3, 3)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0638b8b3fa61f5ec386486a69470a7a7fc73c6177580200ba6c9ebe11d1bc323'),
    ('zero-laden', 'table', (4, 0)): (0,
        '8b3844e221d1daa59d3c65f74ddc4e9d02fed2e012ebb16c3fe0922b2d19f985',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('zero-laden', 'coeffs', (2, 2)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0638b8b3fa61f5ec386486a69470a7a7fc73c6177580200ba6c9ebe11d1bc323'),
    ('zero-laden', 'verify', (1, 1)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0638b8b3fa61f5ec386486a69470a7a7fc73c6177580200ba6c9ebe11d1bc323'),
    ('axis-zero', 'verify', (2, 1)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a0cc6a314b51ea29248fc178111ba02a488a632d202f785c7c9c5a76ebfabbee'),
    ('gap-zero', 'verify', (1, 2)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dda59f14505240dac2521d4087b333e0baa193b6530ad72ee2368d4f9d7a24fa'),
    # qd reads the first sequence of the system as its moments
    ('angelesco', 'qd', (3, 3)): (0,
        'a837977d916d579d20513ce0cf62a1931c9e4eb076309275ca7e7826a9868504',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('nikishin', 'qd', (2, 2)): (0,
        '784585d0bd723faad4082a4d8a3f7e57dfba046e18b95d1d35be3caf77534348',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('short', 'qd', (1, 1)): (0,
        'd8bc2820f895fdbc59d2d11ace7cefad280b84ef34a9f8d426e595a376d2df99',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('short', 'qd', (2, 2)): (5,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6df4981e406cd0d067222ca45b83e0f4a0a198554c7a1aabbb2d5607f3ca676a'),
    ('zero-laden', 'qd', (0, 0)): (0,
        'eee5bad1639198a5dc7b8c8daecbbafd392f03b14e51290b69267bd8c64b0949',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('zero-laden', 'qd', (1, 1)): (3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '025d2cb591070463047a84d2db19abb044177ce2014552add3c78199b824dae4'),
}


def run_pinned(tmp_path, capsys, system, command, window):
    """Exit code and the sha256 digests of stdout and stderr of one call."""
    system = PINNED_SYSTEMS[system]()
    doc = ({"moments": [jsondoc.rat_str(x) for x in system.s1]} if command == "qd"
           else jsondoc.moment_system_to_doc(system))
    path = write_json(tmp_path / "in.json", doc)
    capsys.readouterr()
    code = main([command, "--in", path, "--window", *map(str, window)])
    out, err = capsys.readouterr()
    return (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest())


@pytest.mark.parametrize("case", list(PINNED_CLI),
                         ids=["-".join(map(str, (s, c, *w))) for s, c, w in PINNED_CLI])
def test_pinned_cli_bytes(tmp_path, capsys, case):
    assert run_pinned(tmp_path, capsys, *case) == PINNED_CLI[case]


def pinned_boundary(window, plant):
    """J-fraction rows of the pinned Angelesco system to level N + M; with
    plant = k, c_row[k] is d(k, 0) of the moment route, so the gap (k, 0)
    vanishes and the sweep must exit 4 there."""
    system = PINNED_SYSTEMS["angelesco"]()
    lam = sum(window)
    j1 = moments_to_jfraction(list(system.s1), lam + 1)
    j2 = moments_to_jfraction(list(system.s2), lam + 1)
    c_row = list(j1.c)
    if plant is not None:
        c_row[plant] = field_from_moments(system, plant, 0).d(plant, 0)
    return BoundaryData(c_row, j1.a, j2.c, j2.a)


# (window, planted k) -> (exit code, sha256 of stdout, sha256 of stderr); the
# plant at (5, 0) of window (3, 3) lies outside the cells the output reads
BVP_PINNED = {
    ((4, 4), None): (0,
        '157dc01f935a2447c49a9605dddffa2d5eb24806f21aaa3cee578b91a993ad1e',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ((1, 5), None): (0,
        '9ea6cafcfaf589963401966c42fbba6e8c0f35e863c323fb51033aba4ffe0288',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ((5, 1), None): (0,
        '2cbfa6601c35a5a8128668b07765f430617e7e1cf7fc4b62cee18bf1aac2ae80',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ((3, 3), 5): (4,
        'e73ec3034652738000538f4f256d14d8e67884ec43490a64d5121f63442be3a9',
        '927d89023d9365da3349c1f77b6db897644c6e751adad6af7c4acc27f244ba3e'),
}


@pytest.mark.parametrize("case", list(BVP_PINNED),
                         ids=[f"{w[0]}-{w[1]}-plant{k}" for w, k in BVP_PINNED])
def test_pinned_solve_bvp_bytes(tmp_path, capsys, case):
    window, plant = case
    path = write_json(tmp_path / "in.json",
                      jsondoc.boundary_to_doc(pinned_boundary(window, plant)))
    capsys.readouterr()
    code = main(["solve-bvp", "--in", path, "--window", *map(str, window)])
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == BVP_PINNED[case]


# gen cases: id -> (argv, input document, sha256 of stdout); each exits 0
# with an empty stderr.  The nodes and weights mix denominators, and a
# J-fraction is read past twice its depth.
GEN_PINNED = {
    "nikishin-mixed-denominators": (
        ["gen", "--system", "nikishin", "--order", "40"],
        {"sigma1": {"type": "discrete",
                    "atoms": [["1/2", "2/7"], ["3", "1"], ["5/3", "-3/4"]]},
         "sigma2": {"type": "discrete", "atoms": [["-1/4", "1/3"], ["-2", "2/5"]]}},
        'd0a2bae010e51d217d46fb592a53455b13ca930ef078358c51623c0ce3b6b668'),
    "angelesco-half-integer-intervals": (
        ["gen", "--system", "angelesco", "--window", "5", "4"],
        {"mu1": {"type": "interval", "lo": "-5/2", "hi": "-1/2"},
         "mu2": {"type": "interval", "lo": "1/2", "hi": "3/2"}},
        '2ce2616828004fe863cadcf7b7c99ab3838b4ecc889beb35c3aab46d3edaa785'),
    "angelesco-discrete-mixed-denominators": (
        ["gen", "--system", "angelesco", "--order", "25"],
        {"mu1": {"type": "discrete", "atoms": [["-7/2", "1/3"], ["-1", "2"]]},
         "mu2": {"type": "discrete", "atoms": [["0", "5/6"], ["4/3", "-1/2"]]}},
        '592c9938dc494cb86cd7a6ad8eb5365aa7a10a5a6ee469ebae98b739866cd9da'),
    "jfraction-past-twice-the-depth": (
        ["gen", "--system", "jfraction", "--order", "11"],
        {"f1": {"c": ["1/2", "-3", "2/3"], "a": ["1/4", "5"], "s0": "3/2"},
         "f2": {"c": ["-1", "7/5"], "a": ["2/3", "-1/6"], "s0": "1"}},
        'ce6648b606eebf11a8e5b4bbfffb3787b94b64b27aa3cb212029366fe42a95a3'),
}


@pytest.mark.parametrize("case", list(GEN_PINNED))
def test_pinned_gen_bytes(tmp_path, capsys, case):
    argv, doc, digest = GEN_PINNED[case]
    path = write_json(tmp_path / "in.json", doc)
    capsys.readouterr()
    code = main(argv + ["--in", path])
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


QD_PINNED = [case for case in PINNED_CLI if case[1] == "qd"]


@pytest.mark.parametrize("case", QD_PINNED,
                         ids=["-".join(map(str, (s, *w))) for s, _, w in QD_PINNED])
def test_qd_takes_no_plain_determinant(tmp_path, capsys, monkeypatch, case):
    def refuse(rows):
        raise AssertionError("qd took a plain determinant")

    monkeypatch.setattr(classical, "det_exact", refuse)
    assert run_pinned(tmp_path, capsys, *case) == PINNED_CLI[case]


# the pinned qd inputs that are moments of a measure on one side of 0
ONE_SIDED_QD = [case for case in QD_PINNED if case[0] in ("angelesco", "nikishin", "short")]


@pytest.mark.parametrize("case", ONE_SIDED_QD,
                         ids=["-".join(map(str, (s, *w))) for s, _, w in ONE_SIDED_QD])
def test_qd_forms_no_elimination_on_a_one_sided_measure(tmp_path, capsys, monkeypatch,
                                                        case):
    # no shifted Hankel minor of such a measure vanishes, so every minor
    # comes from the recurrence
    def refuse(row, width):
        raise AssertionError("qd formed a LeadingMinors")

    monkeypatch.setattr(classical, "LeadingMinors", refuse)
    assert run_pinned(tmp_path, capsys, *case) == PINNED_CLI[case]


def run_qd(tmp_path, capsys, moments, window):
    """Exit code, stdout and stderr of one qd call; the blocks (n, k) of
    order n >= 2 whose minors its QdField memoised; and the width of each
    Hankel shift's elimination."""
    fields = []
    init = classical.QdField.__init__

    def recording(self, moments):
        init(self, moments)
        fields.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classical.QdField, "__init__", recording)
        path = write_json(tmp_path / "in.json",
                          {"moments": [jsondoc.rat_str(x) for x in moments]})
        capsys.readouterr()
        code = main(["qd", "--in", path, "--window", *map(str, window)])
        out, err = capsys.readouterr()
    qd, = fields
    blocks = {key for key in qd._minors if key[0] >= 2}
    return (code, out, err), blocks, {k: shift.width for k, shift in qd._shifts.items()}


@pytest.mark.parametrize("window", [(0, 0), (1, 4), (3, 3), (5, 2)])
@pytest.mark.parametrize("moments", [
    measure_moments(MeasureModel.interval(-3, -1), 80),
    [(-1) ** (j // 3) * (j % 4) for j in range(80)],
], ids=["interval", "zero-laden"])
def test_qd_reads_only_the_moments_its_window_needs(tmp_path, capsys, moments, window):
    # its deepest read, minor(n + 2, k + 2), ends at moment 2 n + k + 4
    n, k = window
    last = 2 * n + k + 4
    long, long_blocks, long_widths = run_qd(tmp_path, capsys, moments, window)
    cut, cut_blocks, cut_widths = run_qd(tmp_path, capsys, moments[:last + 1], window)
    assert long == cut
    assert long_blocks == cut_blocks
    assert all(2 * j + i - 2 <= last for j, i in long_blocks)
    if long[0] == 0:
        assert (n + 2, k + 2) in long_blocks
    assert set(long_widths) == set(cut_widths)
    assert all(long_widths[s] <= cut_widths[s] for s in cut_widths)


VERIFY_PINNED = [case for case in PINNED_CLI if case[1] == "verify"]


@pytest.mark.parametrize("case", VERIFY_PINNED,
                         ids=["-".join(map(str, (s, *w))) for s, _, w in VERIFY_PINNED])
def test_verify_forms_no_polynomial(tmp_path, capsys, monkeypatch, case):
    # the pairings read the null vectors' integers, not P(n, m)
    def refuse(self, n, m):
        raise AssertionError("verify formed a table polynomial")

    monkeypatch.setattr(HPTable, "hp_poly_det", refuse)
    assert run_pinned(tmp_path, capsys, *case) == PINNED_CLI[case]


def test_verify_forms_no_fraction_field(tmp_path, capsys, monkeypatch, system_a):
    # verify compares the sweep's field with the table's integer pairs, so
    # it reduces no reference entry to a Fraction
    calls = []
    original = nnrr.field_from_table

    def counting(*args):
        calls.append(args[1:])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hplax."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    path = write_json(tmp_path / "system.json", jsondoc.moment_system_to_doc(system_a))
    assert main(["verify", "--in", path, "--window", "3", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["grids_equal"] is True
    assert calls == []


def refuse_oracles(monkeypatch):
    """Make MatPoly products, HPTable.pairing, moment_pairing, det_exact,
    consistency_residuals, normalization_grid, build_transition,
    zcc_residual and boundary_from_table raise, the last seven under every
    name an hplax module binds them to."""
    def refuse(*args):
        raise AssertionError("an oracle ran on a CLI route")

    monkeypatch.setattr(MatPoly, "__mul__", refuse)
    monkeypatch.setattr(HPTable, "pairing", refuse)
    for original in (kernel.moment_pairing, kernel.det_exact, nnrr.consistency_residuals,
                     lax3.normalization_grid, lax3.build_transition, lax3.zcc_residual,
                     bvp.boundary_from_table):
        for name, module in list(sys.modules.items()):
            if name == "hplax" or name.startswith("hplax."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)


def jfraction_doc(system):
    return {f"f{j}": jsondoc.jfraction_to_doc(moments_to_jfraction(list(s), 4))
            for j, s in ((1, system.s1), (2, system.s2))}


# the subcommands PINNED_CLI does not cover: (argv, input document from system_a)
UNPINNED_CLI = {
    "gen-angelesco": (["gen", "--system", "angelesco", "--window", "3", "3"],
                      lambda s: ANGELESCO),
    "gen-nikishin": (["gen", "--system", "nikishin", "--order", "12"],
                     lambda s: {"sigma1": {"type": "discrete",
                                           "atoms": [["1", "1/2"], ["2", "1/2"]]},
                                "sigma2": {"type": "discrete",
                                           "atoms": [["-2", "1/2"], ["-1", "1/2"]]}}),
    "gen-moments": (["gen", "--system", "moments", "--order", "6"],
                    jsondoc.moment_system_to_doc),
    "gen-jfraction": (["gen", "--system", "jfraction", "--order", "8"], jfraction_doc),
    "solve-bvp": (["solve-bvp", "--window", "2", "2"], boundary_doc),
    "solve-bvp-planted": (["solve-bvp", "--window", "2", "2"], planted),
    "solve-bvp-short": (["solve-bvp", "--window", "3", "2"], boundary_doc),
}


def run_unpinned(tmp_path, capsys, system, case):
    argv, build = UNPINNED_CLI[case]
    path = write_json(tmp_path / "in.json", build(system))
    capsys.readouterr()
    code = main(argv + ["--in", path])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", list(PINNED_CLI) + list(UNPINNED_CLI),
                         ids=["-".join(map(str, (s, c, *w))) for s, c, w in PINNED_CLI]
                         + list(UNPINNED_CLI))
def test_cli_runs_no_oracle(tmp_path, capsys, monkeypatch, system_a, case):
    # MatPoly products, the pairings of single shifts, moment_pairing,
    # det_exact, the consistency identities, the normalisations, the
    # transition pairs and their zero-curvature residual and the table's
    # axes as a boundary serve only the tests
    if case in UNPINNED_CLI:
        want = run_unpinned(tmp_path, capsys, system_a, case)
        refuse_oracles(monkeypatch)
        assert run_unpinned(tmp_path, capsys, system_a, case) == want
    else:
        refuse_oracles(monkeypatch)
        assert run_pinned(tmp_path, capsys, *case) == PINNED_CLI[case]


def error_classes(cls=HplaxError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


# README's exit codes other than 0 and the labels of the error classes that
# exit with each; 1, an internal mismatch, is not among them
EXIT_LABELS = {code: {cls.label for cls in error_classes() if cls.exit_code == code}
               for code in (2, 3, 4, 5)}


def contract_angelesco(count):
    """Angelesco systems of count moments on two disjoint intervals with
    half-integer ends in [-3, 3]."""
    ends = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                    min_size=4, max_size=4, unique=True).map(sorted)
    return ends.map(lambda e: make_angelesco(MeasureModel.interval(e[0], e[1]),
                                             MeasureModel.interval(e[2], e[3]), count))


@st.composite
def contract_systems(draw, count=lambda N, M: 2 * (N + M) + 4):
    """A window up to (3, 3) and count(N, M) moments, by default those
    `gen --window` gives it, of an Angelesco, a discrete Nikishin or a
    zero-laden small-integer system."""
    N, M = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    count = count(N, M)
    kind = draw(st.sampled_from(["angelesco", "nikishin", "integers"]))
    if kind == "angelesco":
        system = draw(contract_angelesco(count))
    elif kind == "nikishin":
        nodes1 = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8, unique=True))
        nodes2 = draw(st.lists(st.integers(-9, -1), min_size=1, max_size=4, unique=True))
        system = make_nikishin(MeasureModel.discrete([(x, 1) for x in nodes1]),
                               MeasureModel.discrete([(x, F(1, 2)) for x in nodes2]),
                               count)
    else:
        system = MomentSystem(*(draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, F(1, 2)]),
                                              min_size=count, max_size=count))
                                for _ in range(2)))
    return (N, M), system


@st.composite
def contract_boundaries(draw):
    """A window up to (3, 3) and boundary rows to its level N + M: the
    J-fraction data of an Angelesco system, or small integers with nonzero
    a and b, mostly not the data of any measure."""
    N, M = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    lam = N + M
    if draw(st.booleans()):
        return (N, M), boundary_from_moments(draw(contract_angelesco(2 * lam + 2)), lam)
    cd = st.lists(st.integers(-3, 3), min_size=lam + 1, max_size=lam + 1)
    ab = st.lists(st.sampled_from([-2, -1, 1, F(1, 2)]), min_size=lam, max_size=lam)
    return (N, M), BoundaryData(draw(cd), draw(ab), draw(cd), draw(ab))


@st.composite
def contract_jfractions(draw):
    """A window up to (3, 3) and the document `gen --system jfraction`
    reads: two J-fractions of depth N + M + 1, of an Angelesco system or
    with small integer entries, mostly not of any measure."""
    N, M = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    depth = N + M + 1
    if draw(st.booleans()):
        system = draw(contract_angelesco(2 * depth))
        pair = [moments_to_jfraction(s, depth) for s in (system.s1, system.s2)]
    else:
        pair = [JFraction(draw(st.lists(st.integers(-3, 3), min_size=depth, max_size=depth)),
                          draw(st.lists(st.sampled_from([-2, -1, 1, F(1, 2)]),
                                        min_size=depth - 1, max_size=depth - 1)),
                          draw(st.sampled_from([1, F(1, 2), -3])))
                for _ in range(2)]
    return (N, M), {f"f{j}": jsondoc.jfraction_to_doc(f) for j, f in enumerate(pair, 1)}


@st.composite
def contract_measures(draw, system):
    """The document `gen --system angelesco|nikishin` reads: two measures,
    each an interval or up to three atoms, on distinct points of [-3, 3]
    with half-integer denominators.  The first measure takes the lowest
    points when they are sorted, and any when they are not, so a pair is
    often not a valid generator: Angelesco intervals that overlap or are
    empty, Nikishin supports that interlace or hold an interval."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    points = draw(st.lists(small, min_size=6, max_size=6, unique=True))
    if draw(st.booleans()):
        points.sort()
    if system == "angelesco":
        keys, interval = ("mu1", "mu2"), st.booleans()
    else:
        keys, interval = ("sigma1", "sigma2"), st.sampled_from([True, False, False])
    doc = {}
    for key in keys:
        if draw(interval):
            lo, hi, *points = points
            doc[key] = {"type": "interval", "lo": str(lo), "hi": str(hi)}
        else:
            size = draw(st.integers(1, 3))
            weights = draw(st.lists(small.filter(bool), min_size=size, max_size=size))
            doc[key] = {"type": "discrete",
                        "atoms": [[str(t), str(w)] for t, w in zip(points, weights)]}
            points = points[size:]
    return doc


@st.composite
def mutated(draw, doc):
    """doc as it is, or with one key dropped, one list or every list cut
    short or lengthened by a copy of one of its entries, one entry wrapped
    in a list, one rational replaced by a non-rational, a zero planted in a
    list, or one scalar field (a rational, a kind, a type, a label) replaced
    by a zero, a non-rational string, a float, a bool, null or a list."""
    doc = json.loads(json.dumps(doc))
    lists = sorted(key for key, value in doc.items() if isinstance(value, list) and value)
    scalars = sorted(key for key, value in doc.items() if not isinstance(value, (list, dict)))
    changes = ["none", "drop"]
    if lists:
        changes += ["cut", "lengthen", "nest", "replace", "zero"]
    if scalars:
        changes.append("scalar")
    change = draw(st.sampled_from(changes))
    if change == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif change == "scalar":
        key = draw(st.sampled_from(scalars))
        doc[key] = draw(st.sampled_from(["0", "abc", 0.5, True, None, [doc[key]]]))
    elif change != "none":
        key = draw(st.sampled_from(lists))
        i = draw(st.integers(0, len(doc[key]) - 1))
        if change in ("cut", "lengthen"):       # this list, or every list
            for changed in (lists if draw(st.booleans()) else [key]):
                entries = doc[changed]
                doc[changed] = (entries[:i] if change == "cut"
                                else entries + [entries[min(i, len(entries) - 1)]])
        elif change == "nest":
            doc[key][i] = [doc[key][i]]
        else:
            doc[key][i] = ("0" if change == "zero" else
                           draw(st.sampled_from([0.5, 2.0, True, None, "1/0", "abc"])))
    return doc


def mutated_part(doc, keys):
    """mutated applied to doc, or to the document under one of keys."""
    return st.sampled_from([*keys, None]).flatmap(
        lambda key: mutated(doc) if key is None else mutated(doc[key]).map(
            lambda part: {**doc, key: part}))


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def assert_contract(path, argv):
    """main on argv returns one of README's exit codes, raises nothing, and
    writes nothing to stderr on exit 0, else one line led by the label of
    an error class with that exit code.  Returns stdout on exit 0, else
    None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--in", str(path)])
    text = err.getvalue()
    if code == 0:
        assert text == ""
        return out.getvalue()
    assert code in EXIT_LABELS, (code, text)
    assert text.endswith("\n") and text.count("\n") == 1, text
    assert any(text.startswith(f"{label}: ") for label in EXIT_LABELS[code]), (code, text)


def assert_round_trip(path, argv, decode, encode):
    """assert_contract, and on exit 0 a document that decode reads back and
    encode writes out again byte for byte."""
    text = assert_contract(path, argv)
    if text is not None:
        assert json.dumps(encode(decode(json.loads(text))), indent=2) + "\n" == text


def assert_gen_contract(path, argv):
    assert_round_trip(path, argv, jsondoc.moment_system_from_doc,
                      jsondoc.moment_system_to_doc)


SCALAR_SYSTEM = make_angelesco(MeasureModel.interval(-2, -1), MeasureModel.interval(1, 2), 8)
NIKISHIN_ATOMS = {"sigma1": {"type": "discrete", "atoms": [["1", "1"], ["2", "3"]]},
                  "sigma2": {"type": "discrete", "atoms": [["-1", "2"]]}}
JFRACTIONS = {"f1": {"c": ["1", "2"], "a": ["1"], "s0": "1"},
              "f2": {"c": ["-1", "-2"], "a": ["2"], "s0": "1/2"}}

# (argv, valid input document, path of one scalar field in it, the values
# in SCALAR_REPLACEMENTS that the field may hold): every scalar field of
# each input document, each of its readers once
SCALAR_FIELDS = {
    f"{name}-{'.'.join(map(str, path))}": (argv, doc, path, valid)
    for name, argv, doc, fields in (
        ("verify", ["verify", "--window", "1", "1"],
         jsondoc.moment_system_to_doc(SCALAR_SYSTEM),
         [(("kind",), ()), (("convention",), ()), (("label",), ("0", "abc")),
          (("count",), ())]),
        ("gen-moments", ["gen", "--system", "moments", "--order", "8"],
         jsondoc.moment_system_to_doc(SCALAR_SYSTEM),
         [(("kind",), ()), (("convention",), ()), (("label",), ("0", "abc")),
          (("count",), ())]),
        ("solve-bvp", ["solve-bvp", "--window", "1", "1"],
         jsondoc.boundary_to_doc(boundary_from_moments(SCALAR_SYSTEM, 2)),
         [(("kind",), ()), (("convention",), ())]),
        ("gen-angelesco", ["gen", "--system", "angelesco", "--order", "4"], ANGELESCO,
         [((mu, key), ("0",) if key != "type" else ())
          for mu in ("mu1", "mu2") for key in ("type", "lo", "hi")]),
        ("gen-nikishin", ["gen", "--system", "nikishin", "--order", "4"], NIKISHIN_ATOMS,
         [((sigma, "type"), ()) for sigma in ("sigma1", "sigma2")]
         + [((sigma, "atoms", 0, part), ("0",))
            for sigma in ("sigma1", "sigma2") for part in (0, 1)]),
        ("gen-jfraction", ["gen", "--system", "jfraction", "--order", "4"], JFRACTIONS,
         [((f, "s0"), ("0",)) for f in ("f1", "f2")]))
    for path, valid in fields}
WRAPPED = "the value wrapped in a list"
SCALAR_REPLACEMENTS = ["0", "abc", 0.5, True, None, WRAPPED]


def replaced(doc, path, value):
    """A copy of doc with the scalar at path replaced by value."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    owner = doc
    for key in head:
        owner = owner[key]
    owner[last] = [owner[last]] if value == WRAPPED else value
    return doc


class TestContract:
    """The CLI contract on mutations of valid `verify`, `solve-bvp`, `table`,
    `coeffs`, `gen` and `qd` documents, and of `gen --system
    angelesco|nikishin` documents that are often not valid."""

    @settings(max_examples=60, deadline=None)
    @given(contract_systems().flatmap(lambda case: st.tuples(
        st.just(case[0]), mutated(jsondoc.moment_system_to_doc(case[1])))))
    def test_verify(self, contract_dir, drawn):
        (N, M), doc = drawn
        path = write_json(contract_dir / "system.json", doc)
        assert_contract(path, ["verify", "--window", str(N), str(M)])

    @settings(max_examples=60, deadline=None)
    @given(contract_boundaries().flatmap(lambda case: st.tuples(
        st.just(case[0]), mutated(jsondoc.boundary_to_doc(case[1])))))
    def test_solve_bvp(self, contract_dir, drawn):
        (N, M), doc = drawn
        path = write_json(contract_dir / "boundary.json", doc)
        assert_contract(path, ["solve-bvp", "--window", str(N), str(M)])

    @settings(max_examples=40, deadline=None)
    @given(contract_systems().flatmap(lambda case: st.tuples(
        st.just(case[0]), mutated(jsondoc.moment_system_to_doc(case[1])))))
    def test_gen_moments(self, contract_dir, drawn):
        (N, M), doc = drawn
        path = write_json(contract_dir / "moments.json", doc)
        assert_gen_contract(path, ["gen", "--system", "moments", "--window", str(N), str(M)])

    @settings(max_examples=40, deadline=None)
    @given(contract_systems().flatmap(lambda case: st.tuples(
        st.just(case[0]), mutated(jsondoc.moment_system_to_doc(case[1])))))
    def test_table(self, contract_dir, drawn):
        (N, M), doc = drawn
        path = write_json(contract_dir / "system.json", doc)
        assert_round_trip(path, ["table", "--window", str(N), str(M)],
                          jsondoc.table_from_doc, lambda table: table_doc_of(*table))

    @settings(max_examples=40, deadline=None)
    @given(contract_systems().flatmap(lambda case: st.tuples(
        st.just(case[0]), mutated(jsondoc.moment_system_to_doc(case[1])))))
    def test_coeffs(self, contract_dir, drawn):
        (N, M), doc = drawn
        path = write_json(contract_dir / "system.json", doc)
        assert_round_trip(path, ["coeffs", "--window", str(N), str(M)],
                          jsondoc.field_from_doc, jsondoc.field_to_doc)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["angelesco", "nikishin"]).flatmap(lambda system: st.tuples(
        st.just(system), st.integers(0, 12),
        contract_measures(system).flatmap(lambda doc: mutated_part(doc, sorted(doc))))))
    def test_gen_measures(self, contract_dir, drawn):
        system, order, doc = drawn
        path = write_json(contract_dir / "measures.json", doc)
        assert_gen_contract(path, ["gen", "--system", system, "--order", str(order)])

    @settings(max_examples=40, deadline=None)
    @given(contract_jfractions().flatmap(lambda case: st.tuples(
        st.just(case[0]), mutated_part(case[1], ["f1", "f2"]))))
    def test_gen_jfraction(self, contract_dir, drawn):
        (N, M), doc = drawn
        path = write_json(contract_dir / "jfractions.json", doc)
        assert_gen_contract(path, ["gen", "--system", "jfraction", "--window", str(N), str(M)])

    @settings(max_examples=40, deadline=None)
    @given(contract_systems(count=lambda n, k: 2 * n + k + 5).flatmap(
        lambda case: st.tuples(st.just(case[0]), st.sampled_from(["s1", "s2"]).flatmap(
            lambda key: mutated({"moments": [jsondoc.rat_str(x)
                                             for x in getattr(case[1], key)]})))))
    def test_qd(self, contract_dir, drawn):
        (n, k), doc = drawn
        path = write_json(contract_dir / "moments.json", doc)
        assert_contract(path, ["qd", "--window", str(n), str(k)])

    @pytest.mark.parametrize("argv", [GEN_MOMENTS, ["table", "--window", "1", "1"],
                                      ["coeffs", "--window", "1", "1"],
                                      ["verify", "--window", "1", "1"]], ids=lambda a: a[0])
    def test_long_integers(self, contract_dir, argv):
        # a moment of 5,000 digits is a rational like any other: the call
        # keeps the contract, and gen and table write the digits out
        doc = jsondoc.moment_system_to_doc(SCALAR_SYSTEM)
        doc["s1"][0] = LONG
        text = assert_contract(write_json(contract_dir / "long.json", doc), argv)
        assert text is not None
        if argv[0] in ("gen", "table"):
            assert LONG in text

    @pytest.mark.parametrize("field", list(SCALAR_FIELDS))
    def test_scalar_replacements(self, contract_dir, field):
        # each replacement of a scalar field exits with a code of README's
        # table; one the field may not hold exits 2 as a parse error
        argv, doc, path, valid = SCALAR_FIELDS[field]
        for value in SCALAR_REPLACEMENTS:
            changed = write_json(contract_dir / "scalar.json", replaced(doc, path, value))
            if value in valid:
                assert_contract(changed, argv)
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--in", changed])
            assert (code, out.getvalue()) == (2, ""), (value, err.getvalue())
            assert err.getvalue().startswith("parse error: "), (value, err.getvalue())
