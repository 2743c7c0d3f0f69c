"""Output checks, each against a route the timed call does not take.

Every check gets the exit code and the emitted document of one request and
returns None when the output is right, or a one-line reason when it is not.
They run outside the timed region, once per distinct request.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def check_request(cmd: str, rc: int | None, doc: dict, system, window,
                  planted_k: int | None = None) -> str | None:
    """Check one answer; swept fields go through check_sweeps instead."""
    if planted_k is not None:
        return check_planted(rc, doc, planted_k)
    if cmd == "verify":
        return check_verify(rc, doc, window)
    if cmd == "coeffs":
        return check_coeffs(rc, doc, system, window)
    if cmd == "table":
        return check_table(rc, doc, system, window)
    if cmd == "qd":
        return check_qd(rc, doc, system.s2, window)
    raise ValueError(f"no check for {cmd!r}")


def det_by_elimination(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals: a second
    route beside the fraction-free integer elimination of kernel.det_exact."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        p = m[col][col]
        det *= p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if f:
                row, prow = m[r], m[col]
                for j in range(col + 1, n):
                    row[j] -= f * prow[j]
    return det


def _rats(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def check_verify(rc: int, doc: dict, window) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    want = {"kind": "verify_report", "window": list(window), "grids_equal": True,
            "zcc_max_residual_degree": "zero", "consistency_residuals": "0",
            "orthogonality_residuals": "0"}
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key} = {doc.get(key)!r}"
    return None


def check_coeffs(rc: int, doc: dict, system, window) -> str | None:
    """The field against the sweep of the two sequences' J-fractions."""
    from hplax import jsondoc
    from hplax.bvp import BoundaryData, sweep_solve
    from hplax.measures import moments_to_jfraction
    if rc != 0:
        return f"exit {rc}"
    depth = sum(window) + 1
    j1 = moments_to_jfraction(system.s1, depth)
    j2 = moments_to_jfraction(system.s2, depth)
    report = sweep_solve(BoundaryData(j1.c, j1.a, j2.c, j2.a), *window)
    if not report.ok:
        return f"J-fraction sweep failed at {report.failure}"
    return _same_field(doc, jsondoc.field_to_doc(report.field))


def _same_field(doc: dict, want: dict) -> str | None:
    for kind in ("window", "a", "b", "c", "d"):
        if doc.get(kind) != want[kind]:
            return f"field {kind} differs from the second route"
    return None


def check_table(rc: int, doc: dict, system, window) -> str | None:
    """Polynomials against the orthogonality linear solve (hp_poly_solve);
    determinants against S(n + 1, m) = (-1)^m h1(n, m) S(n, m) and
    S(n, m + 1) = h2(n, m) S(n, m), where h1, h2 pair P(n, m) with x^n and
    x^m (expand the bordered determinant along its last row)."""
    from hplax.hptable import HPTable
    if rc != 0:
        return f"exit {rc}"
    n_max, m_max = window
    if doc.get("window") != [n_max, m_max]:
        return f"window {doc.get('window')!r}"
    table = HPTable(system, n_max, m_max)
    s_grid = _rats(doc["s"])
    polys = {}
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            p = table.hp_poly_solve(n, m)
            if [str(c) for c in p.coeffs] != doc["p"][n][m]:
                return f"p[{n}][{m}] differs from hp_poly_solve"
            polys[(n, m)] = p.coeffs
    s1, s2 = system.s1, system.s2
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            if n == 0 and m == 0:
                want = Fraction(1)
            elif n == 0:
                want = _pair(polys[(0, m - 1)], s2, m - 1) * s_grid[0][m - 1]
            else:
                sign = -1 if m % 2 else 1
                want = sign * _pair(polys[(n - 1, m)], s1, n - 1) * s_grid[n - 1][m]
            if s_grid[n][m] != want:
                return f"s[{n}][{m}] = {s_grid[n][m]}, pairing route gives {want}"
    return None


def _pair(coeffs, seq, shift: int) -> Fraction:
    return sum((c * seq[shift + i] for i, c in enumerate(coeffs)), Fraction(0))


def hankel(moments, n: int, k: int) -> Fraction:
    return det_by_elimination([[moments[k + i + j] for j in range(n)]
                               for i in range(n)])


def check_qd(rc: int, doc: dict, moments, window) -> str | None:
    """V and W against shifted Hankel determinants taken by elimination."""
    if rc != 0:
        return f"exit {rc}"
    n_max, k_max = window
    if doc.get("zcc2_residual") != "zero" or doc.get("window") != [n_max, k_max]:
        return f"report {doc.get('zcc2_residual')!r} at {doc.get('window')!r}"
    h = {}

    def hk(n, k):
        if (n, k) not in h:
            h[(n, k)] = hankel(moments, n, k)
        return h[(n, k)]

    for n in range(n_max + 1):
        for k in range(k_max + 1):
            v = hk(n + 1, k + 1) * hk(n, k) / (hk(n, k + 1) * hk(n + 1, k))
            w = hk(n + 1, k + 1) * hk(n, k + 1) / (hk(n + 1, k) * hk(n, k + 2))
            if doc["v"][n][k] != str(v) or doc["w"][n][k] != str(w):
                return f"qd value at ({n}, {k}) differs from the Hankel route"
    return None


def check_planted(rc: int, doc: dict, k: int) -> str | None:
    if rc != 4:
        return f"planted boundary exited {rc}, expected 4"
    if doc.get("status") != "non_perfect_boundary" or doc.get("failure_index") != [k, 0]:
        return f"planted boundary at ({k}, 0) reported {doc.get('failure_index')!r}"
    return None


def check_sweeps(results, system, oracle_level: int) -> dict[str, str | None]:
    """Swept fields of one system, checked together.

    results maps request keys to (exit code, document, window).  Windows up
    to oracle_level are compared with the determinant route.  All fields
    must agree where they overlap, and the union of their cells must pass
    field_orthogonality, which costs about as much as the largest window
    alone; on any disagreement each field is checked on its own."""
    from hplax import jsondoc
    from hplax.bvp import field_from_moments
    verdicts: dict[str, str | None] = {}
    cells: dict[tuple[int, int], tuple] = {}
    conflict = False
    for key, (rc, doc, window) in results.items():
        verdict = None if rc == 0 else f"exit {rc}"
        if verdict is None and doc.get("status") != "ok":
            verdict = f"status {doc.get('status')!r}"
        if verdict is None and doc["field"].get("window") != list(window):
            verdict = f"window {doc['field'].get('window')!r}"
        if verdict is None and sum(window) <= oracle_level:
            oracle = jsondoc.field_to_doc(field_from_moments(system, *window))
            verdict = _same_field(doc["field"], oracle)
        verdicts[key] = verdict
        if verdict is None:
            for cell, values in _cells(doc["field"]).items():
                conflict |= cells.setdefault(cell, values) != values
    if not conflict and (not cells or field_orthogonality(cells, system) is None):
        return verdicts
    for key, (rc, doc, window) in results.items():
        if verdicts[key] is None:
            verdicts[key] = field_orthogonality(_cells(doc["field"]), system)
    return verdicts


def _cells(field: dict) -> dict[tuple[int, int], tuple]:
    n_max, m_max = field["window"]
    return {(n, m): tuple(Fraction(field[k][n][m]) for k in "abcd")
            for n in range(n_max + 1) for m in range(m_max + 1)}


def field_orthogonality(cells, system) -> str | None:
    """Rebuild P(n + 1, m) = (x - c) P - a P(n - 1, m) - b P(n, m - 1) and
    P(n, m + 1) = (x - d) P - a P(n - 1, m) - b P(n, m - 1) from P(0, 0) = 1
    at every cell (n, m) of a region closed under stepping towards the
    origin, and require each rebuilt P(n', m') to be orthogonal to x^k
    against the first sequence for k < n' and against the second for
    k < m'.

    A monic polynomial of degree n' + m' with those pairings is the table
    polynomial at a normal index, and P(n - 1, m), P(n, m - 1) are
    independent, so each field value is pinned down.  The polynomials are
    carried as their pairings with x^k, which the recurrences map linearly,
    u'(k) = u(k + 1) - c u(k) - a u_left(k) - b u_down(k), in integers over
    one denominator per vector.
    """
    length = max(n + m + 1 + max(n, m) + 1 for n, m in cells)
    if system.count < length:
        return f"moment system has {system.count} moments, check needs {length}"
    pairings = {(0, 0): tuple(_scaled(seq[:length]) for seq in (system.s1, system.s2))}
    for n, m in sorted(cells, key=sum):
        a, b, c, d = cells[(n, m)]
        if (n == 0 and a != 0) or (m == 0 and b != 0):
            return f"axis value a or b nonzero at ({n}, {m})"
        if (n, m) not in pairings or (a and (n - 1, m) not in pairings) \
                or (b and (n, m - 1) not in pairings):
            return f"cell ({n}, {m}) is not reachable from the origin"
        here = pairings[(n, m)]
        terms = [(a, pairings.get((n - 1, m))), (b, pairings.get((n, m - 1)))]
        for diag, target in ((c, (n + 1, m)), (d, (n, m + 1))):
            rebuilt = tuple(_step(here[j], diag, [(q, v[j]) for q, v in terms if q])
                            for j in (0, 1))
            if any(rebuilt[0][0][:target[0]]) or any(rebuilt[1][0][:target[1]]):
                return f"polynomial rebuilt at {target} from ({n}, {m}) is not orthogonal"
            pairings.setdefault(target, rebuilt)
    return None


def _scaled(values) -> tuple[list[int], int]:
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _step(vec, diag: Fraction, terms) -> tuple[list[int], int]:
    """(u(k + 1) - diag u(k) - sum q v(k)) as integers over one denominator."""
    u, du = vec
    den = lcm(du * diag.denominator, *(dv * q.denominator for q, (_, dv) in terms))
    fu = den // du
    fc = diag.numerator * (den // (du * diag.denominator))
    out = [u[k + 1] * fu - u[k] * fc for k in range(len(u) - 1)]
    for q, (v, dv) in terms:
        f = q.numerator * (den // (dv * q.denominator))
        for k in range(len(out)):
            out[k] -= v[k] * f
    g = gcd(den, *out)
    return [x // g for x in out], den // g
