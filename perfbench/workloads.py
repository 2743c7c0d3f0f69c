"""Seeded inputs for the benchmark workloads.

A workload is one round of request slots, each a (subcommand, system family,
window) triple, repeated for a fixed number of rounds.  Every round is
shuffled by the seed, every slot draws a system from a seeded pool of
distinct systems, and REPEATS_PER_ROUND slots per round (after the first)
are exact repeats of an earlier request of the same slot.  So the mix of
windows is the same for every seed, the systems differ, and the share of
exact repeats is stated rather than left to chance.

The program under test only ever sees the generated JSON documents.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

ANGELESCO = "angelesco"
NIKISHIN = "nikishin"
FAMILIES = (ANGELESCO, NIKISHIN)
REPEATS_PER_ROUND = 1       # exact repeats planted in every round after the first


@dataclass(frozen=True)
class Slot:
    """One position of a round: what is asked, of which family, how large.

    With spread s > 0 the window of each request is (n + t, m - t) for some
    t in [-s, s]: one boundary document then serves several distinct
    requests of about the same cost, since the sweep fills every level up
    to N + M whatever the split."""

    cmd: str
    family: str
    window: tuple[int, int]
    planted: bool = False      # solve-bvp only: boundary made non-perfect
    spread: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]    # one round; a slot may appear several times
    rounds: int                # length of the finite request stream, in rounds
    pool: dict[str, int]       # distinct first and second measures per family;
                               # the pool pairs them into pool**2 systems


@dataclass(frozen=True)
class Request:
    """One call of `hplax <cmd> --in <doc> --window N M`."""

    rid: int
    key: str                   # equal keys <=> identical argv and input bytes
    slot: Slot
    window: tuple[int, int]
    system: int                # index into the family's pool
    doc: str                   # input document, relative to the run directory
    planted_k: int | None = None


def _slots(cmd: str, family: str, windows, times: int = 1, **kw) -> tuple[Slot, ...]:
    return tuple(Slot(cmd, family, (n, n) if isinstance(n, int) else n, **kw)
                 for n in windows for _ in range(times))


A, N = ANGELESCO, NIKISHIN

# Each round is laid out by cost so that the median and the 90th percentile
# of call latency fall in the middle of a block of four identical slots
# (ranks 40-60 % and 80-100 % of a round of 20): the percentiles then track
# those slots' cost instead of jumping between neighbouring windows from
# seed to seed.  Windows stop where a round still fits several times into a
# run of 20 s on one core of a 2-vCPU x86-64 machine.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="verify-ladder",
        why="closed loop, 1 client: verify runs every determinant-route layer "
            "and the lax3 battery and prints a tiny report, so kernel and table "
            "gains show here and JSON gains do not",
        slots=(_slots("verify", A, (2, 3, (2, 3), (3, 2)))
               + _slots("verify", N, (2, 3, (2, 3), (3, 2)))
               + _slots("verify", A, (4,), times=4)                  # median
               + _slots("verify", N, (4,), times=2)
               + _slots("verify", A, (5,)) + _slots("verify", N, (5,))
               + _slots("verify", A, (6,), times=4)),                # p90
        rounds=14, pool={A: 8, N: 6}),
    Workload(
        name="field-ladder",
        why="closed loop, 1 client: coeffs, table and qd emit large exact "
            "documents from both families, so field-route, qd and encode gains "
            "show here and not on verify-ladder",
        slots=(_slots("table", A, (2, 4)) + _slots("table", N, (2, 4))
               + _slots("coeffs", A, (3, 4)) + _slots("coeffs", N, (3,))
               + _slots("qd", A, (3,))
               + _slots("coeffs", A, (5,), times=4)                  # median
               + _slots("qd", A, (5,)) + _slots("qd", N, (5,))
               + _slots("coeffs", N, (5,)) + _slots("table", N, (6,))
               + _slots("table", A, (8,), times=4)),                 # p90
        rounds=14, pool={A: 8, N: 4}),
    Workload(
        name="bvp-sweep",
        why="closed loop, 1 client: solve-bvp sweeps J-fraction boundaries "
            "with no determinant call; one call in five is a planted non-perfect "
            "boundary that must exit 4 at its index",
        slots=(_slots("solve-bvp", A, (10, 16), planted=True, spread=4)
               + _slots("solve-bvp", N, (5, 8), planted=True, spread=4)
               + _slots("solve-bvp", A, (4,), spread=3)
               + _slots("solve-bvp", A, (7,), spread=4)
               + _slots("solve-bvp", N, (3,), spread=2)
               + _slots("solve-bvp", N, (5,), spread=4)
               + _slots("solve-bvp", A, (10,), times=4, spread=4)    # median
               + _slots("solve-bvp", N, (7, 8), spread=4)
               + _slots("solve-bvp", A, (13,), times=2, spread=4)
               + _slots("solve-bvp", A, (16,), times=4, spread=4)),  # p90
        rounds=20, pool={A: 3, N: 2}),
)}


# -- moment systems ---------------------------------------------------------


def moment_count(window: tuple[int, int]) -> int:
    """Moments a window needs, as `hplax gen --window N M` sizes them."""
    n, m = window
    return 2 * (n + m) + 4


def qd_count(window: tuple[int, int]) -> int:
    """Moments `hplax qd` reads at (n_max, k_max): Hankel blocks up to
    order n_max + 2 shifted by k_max + 1, with one to spare."""
    n, k = window
    return 2 * n + k + 5


@dataclass(frozen=True)
class SystemSpec:
    """Parameters of one generated system; the pool keeps them distinct."""

    family: str
    params: tuple

    def moments(self, count: int):
        from hplax.measures import MeasureModel, make_angelesco, make_nikishin
        if self.family == ANGELESCO:
            lo1, hi1, lo2, hi2 = self.params
            return make_angelesco(MeasureModel.interval(lo1, hi1),
                                  MeasureModel.interval(lo2, hi2), count)
        atoms1, atoms2 = self.params
        return make_nikishin(MeasureModel.discrete(atoms1),
                             MeasureModel.discrete(atoms2), count)


def draw_angelesco(rng: random.Random) -> SystemSpec:
    """Two intervals, one on each side of 0, with half-integer endpoints.

    The outer endpoints have magnitude 5/2 or 3, which sets how fast the
    moments' bit lengths grow; so systems of one window cost about the same
    whatever the seed, and a seed changes the data, not the workload."""
    o1, o2 = rng.randint(5, 6), rng.randint(5, 6)
    i1, i2 = rng.randint(1, o1 - 1), rng.randint(1, o2 - 1)
    return SystemSpec(ANGELESCO, (Fraction(-o1, 2), Fraction(-i1, 2),
                                  Fraction(i2, 2), Fraction(o2, 2)))


def draw_nikishin(rng: random.Random, k_atoms: int, j_atoms: int) -> SystemSpec:
    """sigma1 with k_atoms positive integer nodes up to 2 k_atoms, sigma2
    with j_atoms negative ones down to -2 j_atoms, small integer weights.

    The outermost node of each is fixed for the same reason as the outer
    endpoints in draw_angelesco."""
    nodes1 = rng.sample(range(1, 2 * k_atoms), k_atoms - 1) + [2 * k_atoms]
    nodes2 = rng.sample(range(1, 2 * j_atoms), j_atoms - 1) + [2 * j_atoms]
    atoms1 = tuple((Fraction(t), Fraction(rng.randint(1, 3))) for t in sorted(nodes1))
    atoms2 = tuple((Fraction(-t), Fraction(rng.randint(1, 2))) for t in sorted(nodes2))
    return SystemSpec(NIKISHIN, (atoms1, atoms2))


def nikishin_atoms(windows) -> tuple[int, int]:
    """Atom counts of sigma1 and sigma2 that keep every window normal.

    Every determinant has order at most N + M + 1, below the rank of
    sigma1.  With j atoms in sigma2 the first non-normal indices have
    n >= j - 1 and m >= j, which the sweep triangle (levels up to N + M)
    avoids when j > (N + M) / 2 + 1 and the table ring (up to
    (N + 1, M + 1)) when j > min(N + 2, M + 1)."""
    k_atoms = max(n + m for n, m in windows) + 2
    j_atoms = max(max((n + m) // 2 + 2, min(n + 3, m + 2)) for n, m in windows)
    return k_atoms, j_atoms


def draw_pool(rng: random.Random, family: str, size: int, windows) -> list[SystemSpec]:
    """size**2 distinct systems: every pairing of `size` distinct first
    measures with `size` distinct second measures, in seeded order.

    Systems that share a measure share a moment sequence, so setup computes
    each sequence's J-fraction once."""
    k_atoms, j_atoms = nikishin_atoms(windows)
    firsts, seconds = {}, {}
    while len(firsts) < size or len(seconds) < size:
        spec = (draw_angelesco(rng) if family == ANGELESCO
                else draw_nikishin(rng, k_atoms, j_atoms))
        half = len(spec.params) // 2
        if len(firsts) < size:
            firsts.setdefault(spec.params[:half], None)
        if len(seconds) < size:
            seconds.setdefault(spec.params[half:], None)
    pool = [SystemSpec(family, p1 + p2) for p1 in firsts for p2 in seconds]
    rng.shuffle(pool)
    return pool


def slot_windows(slot: Slot) -> list[tuple[int, int]]:
    n, m = slot.window
    return [(n + t, m - t) for t in range(-slot.spread, slot.spread + 1)]


# -- the request stream -----------------------------------------------------


@dataclass
class Plan:
    """The request stream plus what its checks use and the program under
    test never sees: the moments of each system."""

    workload: Workload
    requests: list[Request]
    pools: dict[str, list[SystemSpec]]
    systems: dict[tuple[str, int], object] = field(default_factory=dict)

    def argv(self, req: Request, run_dir: str, out: str) -> list[str]:
        n, m = req.window
        return [req.slot.cmd, "--in", os.path.join(run_dir, req.doc),
                "--window", str(n), str(m), "--out", out]


def plan_stream(workload: Workload, seed: int) -> Plan:
    """The request list of a workload for a seed, without any document.

    Deterministic in (workload, seed).  The non-repeat requests of a slot
    walk a seeded order of (system, window) pairs without reuse, so two
    requests share a key only when one is a planted repeat of the other."""
    rng = random.Random(f"{workload.name}/{seed}")
    pools = {}
    for fam in FAMILIES:
        windows = [w for s in workload.slots if s.family == fam
                   for w in slot_windows(s)]
        pools[fam] = draw_pool(rng, fam, workload.pool[fam], windows)
    combos: dict[Slot, list[tuple[int, tuple[int, int]]]] = {}
    history: dict[Slot, list[Request]] = {}
    requests: list[Request] = []
    for r in range(workload.rounds):
        slots = list(workload.slots)
        rng.shuffle(slots)
        repeat_at = set(rng.sample(range(len(slots)), REPEATS_PER_ROUND)
                        if r else ())
        for i, slot in enumerate(slots):
            rid = len(requests)
            earlier = history.setdefault(slot, [])
            if i in repeat_at:
                src = rng.choice(earlier)
                requests.append(Request(rid, src.key, slot, src.window, src.system,
                                        src.doc, src.planted_k))
                continue
            if slot not in combos:
                combos[slot] = [(s, w) for s in range(len(pools[slot.family]))
                                for w in slot_windows(slot)]
                rng.shuffle(combos[slot])
            if len(earlier) >= len(combos[slot]):
                raise ValueError(f"{workload.name}: pool too small for {slot}")
            system, window = combos[slot][len(earlier)]
            # an early planted index keeps the call cheap, below the median block
            planted_k = rng.randrange(sum(window) // 4) if slot.planted else None
            doc = _doc_name(slot, system, window, planted_k)
            key = f"{slot.cmd}:{doc}:{window[0]}x{window[1]}"
            req = Request(rid, key, slot, window, system, doc, planted_k)
            earlier.append(req)
            requests.append(req)
    return Plan(workload, requests, pools)


def _doc_name(slot: Slot, system: int, window: tuple[int, int],
              planted_k: int | None) -> str:
    if slot.cmd == "solve-bvp":
        tag = f"bvp{sum(window)}" + ("" if planted_k is None else f"-planted{planted_k}")
    elif slot.cmd == "qd":
        tag = f"qd{qd_count(window)}"
    else:
        tag = f"sys{moment_count(window)}"
    return f"{slot.family}-{system}-{tag}.json"


# -- documents ----------------------------------------------------------------


def write_documents(plan: Plan, run_dir: str) -> None:
    """Generate every input document of the stream into run_dir.

    Systems are generated once at the largest moment count their family
    needs; smaller documents are prefixes.  Boundary documents are the
    J-fractions of the two sequences, so they equal the determinant route's
    axis rows exactly.
    """
    from hplax import jsondoc
    from hplax.bvp import BoundaryData
    from hplax.measures import MomentSystem, moments_to_jfraction

    counts: dict[str, int] = {}
    depth: dict[str, int] = {}
    for req in plan.requests:
        fam = req.slot.family
        need = (qd_count(req.window) if req.slot.cmd == "qd"
                else moment_count(req.window))
        counts[fam] = max(counts.get(fam, 0), need)
        if req.slot.cmd == "solve-bvp":
            depth[fam] = max(depth.get(fam, 0), sum(req.window) + 1)
    jfractions: dict[tuple, object] = {}
    boundaries: dict[tuple[str, int], BoundaryData] = {}
    for req in plan.requests:
        ident = (req.slot.family, req.system)
        if ident in plan.systems:
            continue
        system = plan.pools[ident[0]][ident[1]].moments(counts[ident[0]])
        plan.systems[ident] = system
        if ident[0] in depth:
            for seq in (system.s1, system.s2):
                if seq not in jfractions:
                    jfractions[seq] = moments_to_jfraction(seq, depth[ident[0]])
            j1, j2 = jfractions[system.s1], jfractions[system.s2]
            boundaries[ident] = BoundaryData(j1.c, j1.a, j2.c, j2.a)

    written: set[str] = set()
    for req in plan.requests:
        if req.doc in written:
            continue
        ident = (req.slot.family, req.system)
        system = plan.systems[ident]
        if req.slot.cmd == "solve-bvp":
            doc = jsondoc.boundary_to_doc(boundary_for(boundaries[ident], req))
        elif req.slot.cmd == "qd":
            doc = {"moments": [jsondoc.rat_str(x)
                               for x in system.s2[:qd_count(req.window)]]}
        else:
            count = moment_count(req.window)
            doc = jsondoc.moment_system_to_doc(
                MomentSystem(system.s1[:count], system.s2[:count],
                             label=req.slot.family))
        with open(os.path.join(run_dir, req.doc), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        written.add(req.doc)


def boundary_for(full, req: Request):
    """Boundary rows of one request: the J-fraction prefixes for its level,
    with c_row[k] set to d(k, 0) of the unperturbed sweep when planted.

    That makes the gap (c - d) vanish at (k, 0), so the sweep must stop
    there with exit 4."""
    from hplax.bvp import BoundaryData, sweep_solve
    lam = sum(req.window)
    rows = BoundaryData(full.c_row[:lam + 1], full.a_row[:lam],
                        full.d_col[:lam + 1], full.b_col[:lam])
    k = req.planted_k
    if k is None:
        return rows
    d_k0 = sweep_solve(rows, k, 0).field.d(k, 0)
    c_row = rows.c_row[:k] + (d_k0,) + rows.c_row[k + 1:]
    return BoundaryData(c_row, rows.a_row, rows.d_col, rows.b_col)
