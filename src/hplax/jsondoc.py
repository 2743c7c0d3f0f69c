"""Lossless JSON documents for systems, grids, boundaries, and reports.

Rationals are serialized as canonical lowest-term strings ("p/q", bare
integers as "p"); grids are row-major arrays indexed [n][m]; every document
starts with the header ``header`` writes, which records its kind, the
Cauchy sign convention and, where it has one, the window, so files are
self-describing and diffable.  Nothing here is ever approximate.

A reader checks a document's shape: its header, the presence of its
fields, and a list it cuts or compares.  The values go to the constructors
(``MomentSystem``, ``JFraction``, ``MeasureModel``, ``BoundaryData``),
which check them as they check a library caller's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .bvp import BoundaryData, SweepReport
from .errors import ParseError, check_int
from .hptable import HPTable
from .kernel import Poly, lowest_terms, rat
from .measures import JFraction, MeasureModel, MomentSystem
from .nnrr import KINDS, RecurrenceField

CONVENTION = "cauchy"


def rat_str(x: Fraction) -> str:
    return str(x)


def ratio_str(num: int, den: int) -> str:
    """The lowest-terms text of num / den, den nonzero: str(Fraction(num,
    den)), byte for byte, from one gcd and no Fraction."""
    return _pair_str(lowest_terms(num, den))


def _pair_str(pair: tuple[int, int]) -> str:
    """The text of a pair already in lowest terms with den > 0, as str of
    its Fraction writes it; no gcd is taken."""
    num, den = pair
    return str(num) if den == 1 else f"{num}/{den}"


def rat_list(xs: Any) -> list[Fraction]:
    if not isinstance(xs, list):
        raise ParseError(f"expected a list of rationals, got {type(xs).__name__}")
    return [rat(x) for x in xs]


def need(doc: dict, key: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def header(kind: str, window: tuple[int, int] | None = None) -> dict:
    """The fields every document starts with: its kind, the sign convention
    and, where it has one, the window."""
    doc: dict[str, Any] = {"kind": kind, "convention": CONVENTION}
    if window is not None:
        doc["window"] = list(window)
    return doc


def _read_header(doc: dict, kind: str, windowed: bool = False,
                 named: bool = True) -> tuple[int, int] | None:
    """Refuse doc unless it is a kind document in CONVENTION, and return its
    window where windowed: a list of two ints >= 0.  A document that names
    no convention is read in CONVENTION, and unless named, one that names
    no kind is read as a kind document."""
    found = need(doc, "kind") if named else doc.get("kind", kind)
    if found != kind:
        raise ParseError(f"expected a {kind} document, got {found!r}")
    if doc.get("convention", CONVENTION) != CONVENTION:
        raise ParseError(f"convention {doc['convention']!r} is not {CONVENTION!r}")
    if not windowed:
        return None
    win = need(doc, "window")
    if not isinstance(win, list) or len(win) != 2:
        raise ParseError(f"bad window {win!r}")
    for v in win:
        check_int(v, "window", error=ParseError)
    return win[0], win[1]


def _grid_rows(doc: dict, key: str, nw: int, mw: int) -> list:
    """The rows of grid `key`, which must be nw + 1 lists of mw + 1 entries."""
    rows = need(doc, key)
    if (not isinstance(rows, list) or len(rows) != nw + 1
            or any(not isinstance(r, list) or len(r) != mw + 1 for r in rows)):
        raise ParseError(f"grid {key!r} does not match window [{nw}, {mw}]")
    return rows


# -- moment systems ----------------------------------------------------------


def moment_system_to_doc(system: MomentSystem) -> dict:
    return {
        **header("moment_system"),
        "label": system.label,
        "count": system.count,
        "s1": [rat_str(x) for x in system.s1],
        "s2": [rat_str(x) for x in system.s2],
    }


def moment_system_from_doc(doc: dict) -> MomentSystem:
    _read_header(doc, "moment_system")
    s1, s2 = rat_list(need(doc, "s1")), rat_list(need(doc, "s2"))
    if len(s1) != len(s2):
        raise ParseError(f"moment sequences differ in length: {len(s1)} vs {len(s2)}")
    return MomentSystem(tuple(s1), tuple(s2), label=moment_label(doc, s1, s2, ""))


def moment_label(doc: dict, s1: list, s2: list, default: str) -> str:
    """The label of a document of the moments s1, s2 (default where it has
    none), after the fields that ``moment_system_to_doc`` writes with it:
    each one present must hold what it would write, the kind, the
    convention, the count as the int length of s1 and of s2, and a string
    label."""
    _read_header(doc, "moment_system", named=False)
    if "count" in doc:
        count = doc["count"]
        if type(count) is not int or count != len(s1) or count != len(s2):
            raise ParseError(f"count {count!r} is not the length of s1 and s2, "
                             f"{len(s1)} and {len(s2)}")
    label = doc.get("label", default)
    if not isinstance(label, str):
        raise ParseError(f"label {label!r} is not a string")
    return label


# -- measures (generation input) ---------------------------------------------


def measure_from_doc(doc: dict) -> MeasureModel:
    kind = need(doc, "type")
    if kind == "interval":
        return MeasureModel.interval(need(doc, "lo"), need(doc, "hi"))
    if kind == "discrete":
        return MeasureModel.discrete(need(doc, "atoms"))
    raise ParseError(f"unknown measure type {kind!r}")


def jfraction_from_doc(doc: dict) -> JFraction:
    return JFraction(need(doc, "c"), need(doc, "a"), need(doc, "s0"))


def jfraction_to_doc(j: JFraction) -> dict:
    return {"c": [rat_str(x) for x in j.c],
            "a": [rat_str(x) for x in j.a],
            "s0": rat_str(j.s0)}


# -- tables and fields --------------------------------------------------------


def table_to_doc(table: HPTable, window: tuple[int, int]) -> dict:
    """The S and P grids of table over window.  They come from the table's
    nearest-neighbour steps (``HPTable.step_grids``), each coefficient of
    P(n, m) as text from its primitive vector over the vector's last entry.
    Where the steps do not reach, each entry's text is made from the
    column eliminations' integers: S(n, m) from ``HPTable.s_pair``, P(n, m)
    from its null vector, so no Fraction or Poly is formed.  Those read the
    whole S grid before any P, and P row by row, so the first error is that
    of reading S and then P."""
    nw, mw = window
    grids = table.step_grids(nw, mw)
    if grids is not None:
        s_pairs, vectors = grids
        s_grid = [[_pair_str(pair) for pair in row] for row in s_pairs]
        p_grid = [[_monic_str(v) for v in row] for row in vectors]
    else:
        s_grid = [[ratio_str(*table.s_pair(n, m)) for m in range(mw + 1)]
                  for n in range(nw + 1)]
        p_grid = [[_monic_str(table.null_vector(n, m)) for m in range(mw + 1)]
                  for n in range(nw + 1)]
    return {**header("hp_table", window), "s": s_grid, "p": p_grid}


def _monic_str(ints: list[int]) -> list[str]:
    """The coefficients of the polynomial sum ints[i] / ints[-1] x^i as text."""
    lead = ints[-1]
    return [ratio_str(v, lead) for v in ints]


def table_from_doc(doc: dict) -> tuple[list[list[Fraction]], list[list[Poly]],
                                       tuple[int, int]]:
    nw, mw = _read_header(doc, "hp_table", windowed=True)
    s_grid = [[rat(v) for v in row] for row in _grid_rows(doc, "s", nw, mw)]
    p_grid = [[Poly(tuple(rat_list(entry))) for entry in row]
              for row in _grid_rows(doc, "p", nw, mw)]
    for n, row in enumerate(p_grid):
        for m, poly in enumerate(row):
            if poly.degree != n + m or not poly.is_monic:
                raise ParseError(f"p[{n}][{m}] is not monic of degree {n + m}")
    return s_grid, p_grid, (nw, mw)


def field_to_doc(field: RecurrenceField) -> dict:
    nw, mw = field.window
    doc = header("recurrence_field", field.window)
    for kind in KINDS:
        doc[kind] = [[_pair_str(field.pair(kind, n, m)) for m in range(mw + 1)]
                     for n in range(nw + 1)]
    return doc


def field_from_doc(doc: dict) -> RecurrenceField:
    nw, mw = _read_header(doc, "recurrence_field", windowed=True)
    grids: dict[str, dict[tuple[int, int], Fraction]] = {}
    for kind in KINDS:
        rows = _grid_rows(doc, kind, nw, mw)
        grids[kind] = {(n, m): rat(rows[n][m])
                       for n in range(nw + 1) for m in range(mw + 1)}
    return RecurrenceField(grids, (nw, mw))


# -- boundary data and sweep reports -------------------------------------------


def boundary_to_doc(boundary: BoundaryData) -> dict:
    return {
        **header("boundary_data"),
        "c_row": [rat_str(x) for x in boundary.c_row],
        "a_row": [rat_str(x) for x in boundary.a_row],
        "d_col": [rat_str(x) for x in boundary.d_col],
        "b_col": [rat_str(x) for x in boundary.b_col],
    }


def boundary_from_doc(doc: dict) -> BoundaryData:
    _read_header(doc, "boundary_data")
    return BoundaryData(*(need(doc, key) for key in ("c_row", "a_row", "d_col", "b_col")))


def sweep_report_to_doc(report: SweepReport, window: tuple[int, int]) -> dict:
    doc = {
        **header("sweep_report", window),
        "status": "ok" if report.ok else "non_perfect_boundary",
        "divisions_checked": report.divisions_checked,
    }
    if report.ok:
        doc["field"] = field_to_doc(report.field)
    else:
        index, reason = report.failure
        doc["failure_index"] = list(index)
        doc["failure_reason"] = reason
    return doc
