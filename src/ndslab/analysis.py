"""Diagnostics: separated sets, entropy lower bounds, pair classification.

Everything here produces certified *lower* bounds or finite-horizon
classifications; no limit quantity is ever claimed.  Distances are exact:
orbits are compared as integer numerators over a common denominator, and
floats appear only in the logged entropy estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .blowup import LimitMapBundle
from .constructions import BlockProgram
from .dynamics import trajectory
from .plmap import sup_distance
from .symbolic import Code


@dataclass(frozen=True)
class SeparationReport:
    times: tuple[int, ...]
    epsilon: Fraction
    n: int
    cardinality: int
    entropy_estimate: float
    witnesses: tuple[Fraction, ...]
    flagged: bool = False


@dataclass(frozen=True)
class PairVerdict:
    tail_min: Fraction
    tail_max: Fraction
    horizon: int
    classification: str  # "LY-candidate" | "asymptotic-candidate" | "distal-candidate"


def _check_cells(A: Sequence[int], n_list: Sequence[int], epsilons: Sequence) -> None:
    if any(eps <= 0 for eps in epsilons):
        raise ValueError("epsilon must be positive")
    if not all(1 <= n <= len(A) for n in n_list):
        raise ValueError("n must satisfy 1 <= n <= len(A)")


def _sample(
    program: BlockProgram, xs: Iterable[Fraction], times: Sequence[int], taints: list
) -> Iterator[Optional[list[Fraction]]]:
    """Each start's exact values at the given times, yielded as it is sampled.

    A start whose value at the earliest time repeats an earlier start's
    yields None: one map sequence carries equal values to equal values, so
    its row is a copy at every sampled time.  Each start's first tainted
    time is appended to ``taints``, a repeat's too, since a flag can differ
    before the earliest time.
    """
    T, first = max(times, default=0), min(times, default=0)
    # a dict, not a set: at 5,236 keys it takes 0.15 MB against 0.52 MB
    seen: dict = {}
    for x in xs:
        traj = trajectory(program, Fraction(x), T)
        taints.append(traj.tainted_from)
        size = len(seen)
        seen[traj.values[first]] = None  # one hash per start
        yield [traj.values[t] for t in times] if len(seen) > size else None


def _separation(row: Sequence[Fraction], other: Sequence[Fraction], epsilon: Fraction) -> int:
    """The first index at which the rows differ by more than epsilon, or len(row) if none."""
    for t, (a, b) in enumerate(zip(row, other)):
        if abs(a - b) > epsilon:
            return t
    return len(row)


def _greedy(
    rows: Iterable[Optional[Sequence[Fraction]]],
    ns: Iterable[int],
    epsilons: Sequence[Fraction],
) -> list[list[tuple[int, int]]]:
    """For each epsilon, the rows that a greedy pass on their first n values
    keeps for some n in ns, as (index, mask) pairs: bit n - 1 of the mask is
    set when the cell n keeps the row.

    One pass over the rows, read once in order, serves every cell.  A row
    and a kept row have a separation index s: the first time index at which
    they differ by more than epsilon, or the row's length.  The kept row
    blocks the row in the cells of its mask with n <= s.  Kept rows whose
    cells are all blocked already are skipped, and the row's comparisons
    stop once every cell is blocked, so the cost does not grow with the
    number of cells.  The row is kept in the cells left open.

    A None row, a copy of an earlier row (see ``_sample``), is skipped: that
    row was kept, at distance 0, or was blocked by a kept row that blocks
    the copy too.  Only the first max(ns) values of the kept rows are held.
    """
    bits = {n: 1 << (n - 1) for n in ns}
    full, top = sum(bits.values()), max(bits)
    # upto[s]: the cells a kept row at separation index s blocks
    upto = [sum(bit for n, bit in bits.items() if n <= s) for s in range(top + 1)]
    kept: list[list[tuple[int, int]]] = [[] for _ in epsilons]
    held: dict[int, Sequence[Fraction]] = {}  # kept index -> its first max(ns) values
    for i, row in enumerate(rows):
        if row is None:
            continue
        vx = row[:top]
        for epsilon, chosen in zip(epsilons, kept):
            blocked = 0
            for k, mask in chosen:
                if mask & ~blocked:
                    blocked |= mask & upto[_separation(vx, held[k], epsilon)]
                    if blocked == full:
                        break
            else:
                chosen.append((i, full & ~blocked))
                held[i] = vx
    return kept


def _read_kept(
    program: BlockProgram, candidates: Sequence, A: Sequence[int], epsilons: Sequence
) -> Optional[tuple]:
    """The program's kept answers when their candidates, times and epsilon equal these."""
    for answers in program._kept_answers:  # at most one
        key, times, epsilon = answers[:3]
        # equality, not hashing: on the same candidate objects, one identity test each
        if times == tuple(A) and all(eps == epsilon for eps in epsilons) and key == tuple(candidates):
            return answers
    return None


def _estimate(card: int, a_n: int) -> float:
    # time 0 may legitimately appear in Bowen-style checks; those cells carry
    # no entropy normalisation
    return math.log(card) / a_n if card and a_n > 0 else 0.0


def greedy_separated(
    program: BlockProgram,
    candidates: Sequence[Fraction],
    A: Sequence[int],
    n: int,
    epsilon: Fraction,
) -> SeparationReport:
    """Greedy pairwise-separated subset: a certified lower bound.

    A candidate joins the witness set when its sampled values differ from
    every chosen witness by more than epsilon at one of the first n times.
    The report is flagged when any candidate's values at those n times are
    inexact: their last time T exceeds the exact horizon, or a trajectory is
    tainted at or before T.  A call that misses samples the candidates at
    every time of A, makes one greedy pass at epsilon for every n in
    1..len(A), and keeps the answers on the program in place of the last
    ones: the candidates, A, epsilon, each kept row's index and mask, and
    the taints, but no sampled row.  A call with equal candidates, A and
    epsilon reads its n's witnesses there, with no sample and no pass.
    """
    _check_cells(A, [n], [epsilon])
    epsilon = Fraction(epsilon)
    answers = _read_kept(program, candidates, A, [epsilon])
    if answers is None:
        key, A, taints = tuple(candidates), tuple(A), []
        kept, = _greedy(_sample(program, key, A, taints), range(1, len(A) + 1), [epsilon])
        answers = (key, A, epsilon, kept, taints)
        program._kept_answers[:] = [answers]
    key, A, _, kept, taints = answers
    times = A[:n]
    T = max(times)
    flagged = program.exact_horizon is not None and T > program.exact_horizon
    selected = [Fraction(key[i]) for i, mask in kept if mask >> (n - 1) & 1]
    return SeparationReport(
        times=times,
        epsilon=epsilon,
        n=n,
        cardinality=len(selected),
        entropy_estimate=_estimate(len(selected), times[-1]),
        witnesses=tuple(selected),
        flagged=flagged or any(t is not None and t <= T for t in taints),
    )


def verify_separated(
    program: BlockProgram,
    report: SeparationReport,
) -> bool:
    """Post-hoc soundness check of a report's witness set.

    The witnesses are sampled afresh and compared as ``Fraction``s: the
    program's kept answers are neither read nor replaced, so a wrong kept
    answer cannot certify itself.  Witnesses that share a row are not separated.
    """
    rows = list(_sample(program, report.witnesses, report.times, []))
    n = len(report.times)
    return None not in rows and all(
        _separation(row, other, report.epsilon) < n
        for j, row in enumerate(rows)
        for other in rows[:j]
    )


@dataclass(frozen=True)
class EntropyTable:
    A: tuple[int, ...]
    rows: tuple[tuple[str, int, int, float], ...]  # (epsilon, n, cardinality, estimate)
    headline: float

    def to_json_dict(self) -> dict:
        return {
            "times": list(self.A),
            "rows": [
                {"epsilon": e, "n": n, "cardinality": c, "estimate": est}
                for e, n, c, est in self.rows
            ],
            "headline": self.headline,
        }


def entropy_estimate(
    program: BlockProgram,
    A: Sequence[int],
    epsilons: Sequence[Fraction],
    n_list: Sequence[int],
    candidates: Sequence[Fraction],
) -> EntropyTable:
    """Lower-bound table log(cardinality)/a_n over (epsilon, n) cells.

    The headline is the table maximum.  This estimates the sequence-entropy
    double limit from below only; callers choose the cells, and the identity
    program yields exactly 0 whenever epsilon dominates the candidate spread.
    Each cell equals ``greedy_separated``'s cardinality for that epsilon and
    n.  The table reads the program's kept answers when its candidates, its
    times A[:max(n_list)] and every epsilon equal the kept ones.  Otherwise
    it samples the candidates at those times and streams the sample through
    one greedy pass for every cell, holding only the rows it keeps.  A table
    never writes the kept answers.
    """
    if not epsilons or not n_list:
        raise ValueError("the table needs at least one epsilon and one n")
    _check_cells(A, n_list, epsilons)
    times = tuple(A[:max(n_list)])
    epsilons = [Fraction(eps) for eps in epsilons]
    answers = _read_kept(program, candidates, times, epsilons)
    if answers is None:
        passes = _greedy(_sample(program, candidates, times, []), n_list, epsilons)
    else:
        passes = [answers[3]] * len(epsilons)
    rows = []
    headline = 0.0
    for eps, kept in zip(epsilons, passes):
        for n in n_list:
            card = sum(mask >> (n - 1) & 1 for _, mask in kept)
            est = _estimate(card, times[n - 1])
            rows.append((str(eps), n, card, est))
            headline = max(headline, est)
    return EntropyTable(A=times, rows=tuple(rows), headline=headline)


def _integer_rows(seqs: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(L, rows): seqs' values as numerators over their common denominator L.

    Orbits share value objects (one per memo step): each is converted once.
    """
    values = {id(v): v for vs in seqs for v in vs}
    L = math.lcm(*(v.denominator for v in values.values()))
    nums = {k: v.numerator * (L // v.denominator) for k, v in values.items()}
    return L, [[nums[id(v)] for v in vs] for vs in seqs]


def ly_classify(
    program: BlockProgram,
    x: Fraction,
    y: Fraction,
    T: int,
    delta: Fraction,
) -> PairVerdict:
    """Finite-horizon pair classification over the window [T/2, T].

    Distances below delta somewhere and above delta somewhere in the window
    make the pair an LY-candidate; staying below is asymptotic-like, staying
    at or above is distal-like.  This is a heuristic about a finite window
    and never a limit claim.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    rows = []  # each start's values[T // 2 :] as (L, numerators over L)
    for start in (x, y):
        if not isinstance(start, (int, Fraction)):
            start = Fraction(start)
        key = (start.numerator, start.denominator, T)
        row = program._tails.get(key)
        if row is None:
            window = trajectory(program, Fraction(start), T).values[T // 2 :]
            L, (nums,) = _integer_rows([window])
            row = program._tails[key] = (L, nums)
        rows.append(row)
    # a/p - b/q = (aq - bp) / (pq): every distance over the one denominator pq
    (p, A), (q, B) = rows
    dists = [abs(a * q - b * p) for a, b in zip(A, B)]
    tail_min, tail_max = Fraction(min(dists), p * q), Fraction(max(dists), p * q)
    if tail_min >= delta:
        cls = "distal-candidate"
    elif tail_max > delta:
        cls = "LY-candidate"
    else:
        cls = "asymptotic-candidate"
    return PairVerdict(tail_min=tail_min, tail_max=tail_max, horizon=T, classification=cls)


def eventual_constancy(
    program: BlockProgram, x: Fraction, T: int
) -> Optional[tuple[int, Fraction]]:
    """Least t0 with exactly constant values on [t0, T], or None.

    A trajectory counts as settled only when the constant run covers at
    least the last two sampled values (t0 <= T - 1); the single final value
    alone is vacuous.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    vals = trajectory(program, Fraction(x), T).values
    t0 = T
    while t0 > 0 and vals[t0 - 1] == vals[T]:
        t0 -= 1
    if t0 <= T - 1:
        return t0, vals[T]
    return None


@dataclass(frozen=True)
class DistalityRow:
    pair: tuple[str, str]
    split_depth: int
    bound: Fraction
    min_distance: Fraction
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "split_depth": self.split_depth,
            "bound": str(self.bound),
            "min_distance": str(self.min_distance),
            "ok": self.ok,
        }


def _split_depth(a: Code, b: Code) -> int:
    """The first position where a and b differ: the lowest set bit of a XOR b."""
    x = a.index ^ b.index
    if not x:
        raise ValueError("codes must be distinct")
    return (x & -x).bit_length()


def _min_gap(a: tuple, b: tuple) -> int:
    """Minimal gap over time of two intervals, each a (left, right) pair of integer rows."""
    al, ar = a
    bl, br = b
    return max(0, min(max(p - q, u - v) for p, q, u, v in zip(bl, ar, al, br)))


def distality_report(
    bundle: LimitMapBundle,
    program: BlockProgram,
    code_pairs: Sequence[tuple[Code, Code]],
    T: int,
) -> list[DistalityRow]:
    """Interval-surrogate distality bounds for pairs of blown intervals.

    For each pair the orbits of the two intervals (tracked through their
    endpoints, which ride every program map exactly) must stay at least the
    minimal gap between distinct cylinder hulls at the pair's split depth.
    Bad horizons and pairs raise ValueError before any orbit is computed.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    if T > bundle.exact_horizon:
        raise ValueError("horizon exceeds the atlas's exact range")
    depths = []
    for a, b in code_pairs:
        if a == b:
            raise ValueError("pairs must consist of distinct codes")
        d = _split_depth(a, b)
        need = max(d, a.depth, b.depth)
        if need > bundle.atlas.depth:
            raise ValueError(
                f"pair {a}, {b} needs depth {need}, beyond atlas depth {bundle.atlas.depth}"
            )
        depths.append(d)
    bounds = {d: bundle.atlas.min_hull_gap(d) for d in set(depths)}
    steps: dict = {}  # one step memo for every endpoint orbit: they revisit few values
    codes = dict.fromkeys(c for pair in code_pairs for c in pair)  # in first-use order
    ends = [e for c in codes for e in bundle.atlas.interval_of(c)]
    L, rows = _integer_rows([trajectory(program, e, T, steps).values for e in ends])
    orbits = dict(zip(codes, zip(rows[::2], rows[1::2])))  # each code's (left, right) rows
    out = []
    for (a, b), d in zip(code_pairs, depths):
        bound = bounds[d]
        min_d = Fraction(_min_gap(orbits[a], orbits[b]), L)
        out.append(
            DistalityRow(
                pair=(str(a), str(b)),
                split_depth=d,
                bound=bound,
                min_distance=min_d,
                ok=min_d >= bound,
            )
        )
    return out


@dataclass(frozen=True)
class ConvergenceRow:
    label: str
    envelope: Fraction
    bound: Optional[Fraction]
    within_bound: Optional[bool]

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "envelope": str(self.envelope),
            "bound": None if self.bound is None else str(self.bound),
            "within_bound": self.within_bound,
        }


def convergence_report(
    bundle: LimitMapBundle, program: BlockProgram
) -> tuple[list[ConvergenceRow], bool]:
    """Per-stage uniform-distance envelopes against the bundle's limit map.

    The envelope of a stage is the largest sup-distance between any of its
    maps and the limit; when the stage carries an image hull the envelope is
    compared against that hull's length.  Returns the rows and whether the
    envelopes decrease strictly.
    """
    rows: list[ConvergenceRow] = []
    for s in program.stages:
        # stage maps are shared objects: dedupe by identity
        maps = {id(m): m for m in s.maps}.values()
        env = max(sup_distance(m, bundle.f) for m in maps)
        bound = None if s.image_hull is None else s.image_hull[1] - s.image_hull[0]
        rows.append(
            ConvergenceRow(
                label=s.label,
                envelope=env,
                bound=bound,
                within_bound=None if bound is None else env <= bound,
            )
        )
    strict = all(a.envelope > b.envelope for a, b in zip(rows, rows[1:]))
    return rows, strict
