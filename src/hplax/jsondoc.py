"""Lossless JSON documents for systems, grids, boundaries, and reports.

Rationals are serialized as canonical lowest-term strings ("p/q", bare
integers as "p"); grids are row-major arrays indexed [n][m]; every document
header records the Cauchy sign convention and the window so files are
self-describing and diffable.  Nothing here is ever approximate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .bvp import BoundaryData, SweepReport
from .errors import ParseError
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


def _window(doc: dict) -> tuple[int, int]:
    win = need(doc, "window")
    if (not isinstance(win, list) or len(win) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
                       for v in win)):
        raise ParseError(f"bad window {win!r}")
    return win[0], win[1]


def _check_convention(doc: dict) -> None:
    """Refuse a document that names a sign convention other than CONVENTION;
    one that names none is read in it."""
    if doc.get("convention", CONVENTION) != CONVENTION:
        raise ParseError(f"convention {doc['convention']!r} is not {CONVENTION!r}")


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
        "kind": "moment_system",
        "convention": CONVENTION,
        "label": system.label,
        "count": system.count,
        "s1": [rat_str(x) for x in system.s1],
        "s2": [rat_str(x) for x in system.s2],
    }


def moment_system_from_doc(doc: dict) -> MomentSystem:
    if need(doc, "kind") != "moment_system":
        raise ParseError(f"expected a moment_system document, got {doc.get('kind')!r}")
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
    if doc.get("kind", "moment_system") != "moment_system":
        raise ParseError(f"expected a moment_system document, got {doc['kind']!r}")
    _check_convention(doc)
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
        return MeasureModel.interval(rat(need(doc, "lo")),
                                     rat(need(doc, "hi")))
    if kind == "discrete":
        atoms = need(doc, "atoms")
        if not isinstance(atoms, list):
            raise ParseError("discrete measure needs an atom list")
        pairs = []
        for entry in atoms:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError(f"bad atom {entry!r}; expected [node, weight]")
            pairs.append((rat(entry[0]), rat(entry[1])))
        return MeasureModel.discrete(pairs)
    raise ParseError(f"unknown measure type {kind!r}")


def jfraction_from_doc(doc: dict) -> JFraction:
    return JFraction(tuple(rat_list(need(doc, "c"))),
                     tuple(rat_list(need(doc, "a"))),
                     rat(need(doc, "s0")))


def jfraction_to_doc(j: JFraction) -> dict:
    return {"c": [rat_str(x) for x in j.c],
            "a": [rat_str(x) for x in j.a],
            "s0": rat_str(j.s0)}


# -- tables and fields --------------------------------------------------------


def table_to_doc(table: HPTable, window: tuple[int, int]) -> dict:
    """The S and P grids of table over window, each entry's text made from
    the table's integers: S(n, m) from ``HPTable.s_pair``, each coefficient
    of P(n, m) from its null vector over the vector's last entry, so no
    Fraction or Poly is formed.  The whole S grid is read before any P, and
    P row by row, so the first error is that of reading S and then P."""
    nw, mw = window
    s_grid = [[ratio_str(*table.s_pair(n, m)) for m in range(mw + 1)]
              for n in range(nw + 1)]
    p_grid = [[_monic_str(table.null_vector(n, m)) for m in range(mw + 1)]
              for n in range(nw + 1)]
    return {
        "kind": "hp_table",
        "convention": CONVENTION,
        "window": [nw, mw],
        "s": s_grid,
        "p": p_grid,
    }


def _monic_str(ints: list[int]) -> list[str]:
    """The coefficients of the polynomial sum ints[i] / ints[-1] x^i as text."""
    lead = ints[-1]
    return [ratio_str(v, lead) for v in ints]


def table_from_doc(doc: dict) -> tuple[list[list[Fraction]], list[list[Poly]],
                                       tuple[int, int]]:
    if need(doc, "kind") != "hp_table":
        raise ParseError(f"expected an hp_table document, got {doc.get('kind')!r}")
    _check_convention(doc)
    nw, mw = _window(doc)
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
    doc: dict[str, Any] = {
        "kind": "recurrence_field",
        "convention": CONVENTION,
        "window": [nw, mw],
    }
    for kind in KINDS:
        doc[kind] = [[_pair_str(field.pair(kind, n, m)) for m in range(mw + 1)]
                     for n in range(nw + 1)]
    return doc


def field_from_doc(doc: dict) -> RecurrenceField:
    if need(doc, "kind") != "recurrence_field":
        raise ParseError(f"expected a recurrence_field document, got {doc.get('kind')!r}")
    _check_convention(doc)
    nw, mw = _window(doc)
    grids: dict[str, dict[tuple[int, int], Fraction]] = {}
    for kind in KINDS:
        rows = _grid_rows(doc, kind, nw, mw)
        grids[kind] = {(n, m): rat(rows[n][m])
                       for n in range(nw + 1) for m in range(mw + 1)}
    return RecurrenceField(grids, (nw, mw))


# -- boundary data and sweep reports -------------------------------------------


def boundary_to_doc(boundary: BoundaryData) -> dict:
    return {
        "kind": "boundary_data",
        "convention": CONVENTION,
        "c_row": [rat_str(x) for x in boundary.c_row],
        "a_row": [rat_str(x) for x in boundary.a_row],
        "d_col": [rat_str(x) for x in boundary.d_col],
        "b_col": [rat_str(x) for x in boundary.b_col],
    }


def boundary_from_doc(doc: dict) -> BoundaryData:
    if need(doc, "kind") != "boundary_data":
        raise ParseError(f"expected a boundary_data document, got {doc.get('kind')!r}")
    _check_convention(doc)
    return BoundaryData(
        c_row=tuple(rat_list(need(doc, "c_row"))),
        a_row=tuple(rat_list(need(doc, "a_row"))),
        d_col=tuple(rat_list(need(doc, "d_col"))),
        b_col=tuple(rat_list(need(doc, "b_col"))),
    )


def sweep_report_to_doc(report: SweepReport, window: tuple[int, int]) -> dict:
    doc: dict[str, Any] = {
        "kind": "sweep_report",
        "convention": CONVENTION,
        "window": list(window),
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
