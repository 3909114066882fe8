"""The two block-built map sequences and their auxiliary maps.

Both families splice the same two moves into a base map: a three-lap fold of
a stack onto its image under the base, then a collapse of the stack onto the
centre of that image.

Family one ("lemma" family): over the identity, on the stacks K_n =
[a_n, 1-a_n] with a_n = 1/(n+2) (lemma_K); blocks of repeated folds phi_n
then one collapse psi_n send K_n to the fixed point 1/2 while the phi's
create a 3-horseshoe inside K_n.  Only the number of blocks and their repeat
counts are configurable.

Family two ("main" family): over the blow-up limit map f_D.  Each stage picks
a cylinder block n_i; lambda_i, the identity spliced with the blown intervals
of that cylinder permuted as the symbol-reversing involution permutes codes,
gives eta_i = f_D after lambda_i; phi_{i,n} folds the stack K^n at the
cylinder's visit point and psi_{i,n} collapses it to the centre of the next
blown interval.  K^n has the fixed relative length 1 - 2^(-n-1) of its blown
interval (stack_rel); only the stage blocks and repeat counts are configurable.

All maps are exact PLMaps; programs are finite stage lists plus a tail map,
or none to cycle, so that the map at any time t >= 1 is well defined.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import Optional, Sequence

from .blowup import Interval, LimitMapBundle
from .plmap import PLMap, _canonical_map, compose, eval_pl, identity_map
from .symbolic import Block, Code, block_successor, evaluate_e

# ---------------------------------------------------------------------------
# programs


def _count(v, what: str) -> int:
    """v as an int; floats, strings and booleans (``index(True)`` is 1) raise TypeError."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise TypeError(f"{what} must be an integer, not {v!r}")
    return index(v)


@dataclass(frozen=True)
class Stage:
    """A block of maps plus bookkeeping used by the analysis reports."""

    label: str
    maps: tuple[PLMap, ...]
    meta: dict = field(default_factory=dict)  # ints and strings, written by build-nds
    image_hull: Optional[Interval] = None  # bounds the convergence envelope


@dataclass(frozen=True)
class BlockProgram:
    """A time-indexed sequence of maps: finite stages, then a tail.

    After the stages the program keeps applying ``tail_map``, or, when it
    has none, cycles through the concatenated stage maps forever.
    ``frontier`` lists the intervals where the maps are only approximate
    and ``exact_horizon`` the last exact time; a program built on an atlas
    copies both from its bundle.  Diagnostics that need the atlas take the
    bundle as an argument.
    """

    stages: tuple[Stage, ...]
    tail_map: Optional[PLMap] = None
    frontier: tuple[Interval, ...] = ()
    exact_horizon: Optional[int] = None
    # the stage maps in time order, so map_at is one index
    _schedule: tuple[PLMap, ...] = field(init=False, repr=False, compare=False)
    # analysis.ly_classify's tail windows as (L, numerators over the common
    # denominator L), keyed by the start's (numerator, denominator, horizon)
    _tails: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # greedy_separated's last answers, empty or one: (candidates, times A,
    # epsilon, each kept row's (index, mask of the n <= len(A) that keep it),
    # each start's tainted_from), read only on equal candidates, A and epsilon
    _kept_answers: list = field(init=False, repr=False, compare=False, default_factory=list)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_schedule", tuple(m for s in self.stages for m in s.maps)
        )
        if not self._schedule:
            raise ValueError("a program needs at least one map in its stages")
        if self.exact_horizon is not None and _count(self.exact_horizon, "exact_horizon") < 0:
            raise ValueError("exact_horizon must be >= 0")
        if not all(0 <= l <= r <= 1 for l, r in self.frontier):
            raise ValueError(f"frontier intervals need 0 <= l <= r <= 1: {self.frontier}")

    @property
    def stage_length(self) -> int:
        return len(self._schedule)

    def map_at(self, t: int) -> PLMap:
        """The map applied at time t >= 1."""
        if t < 1:
            raise ValueError("time starts at 1")
        idx = t - 1
        if idx >= len(self._schedule):
            if self.tail_map is not None:
                return self.tail_map
            idx %= len(self._schedule)
        return self._schedule[idx]


# ---------------------------------------------------------------------------
# the splice and the two moves both families are built from


def _splice(base: PLMap, points: list[tuple[Fraction, Fraction]]) -> PLMap:
    """The map through ``points`` on their span, and ``base`` outside it."""
    points = sorted(points)
    i, j = bisect_left(base.xs, points[0][0]), bisect_right(base.xs, points[-1][0])
    # base's points outside the span bracket the sorted points, so the whole
    # list is in x-order already
    return _canonical_map(
        list(zip(base.xs[:i], base.ys[:i])) + points + list(zip(base.xs[j:], base.ys[j:]))
    )


def _fold(base: PLMap, stack: Interval, divider: Interval) -> PLMap:
    """``base`` with a three-lap fold of the stack onto its image under ``base``.

    The three parts of the stack cut by the divider rise, fall and rise onto
    the image, so the stack covers it three times.
    """
    (kl, kr), (il, ir) = stack, divider
    nl, nr = eval_pl(base, kl), eval_pl(base, kr)
    return _splice(base, [(kl, nl), (il, nr), (ir, nl), (kr, nr)])


def _collapse(base: PLMap, stack: Interval, outer: Interval) -> PLMap:
    """``base`` with the stack sent to the centre of its image under ``base``.

    Constant on the stack, equal to ``base`` outside ``outer`` and linear on
    the two joining pieces.
    """
    (kl, kr), (ol, orr) = stack, outer
    centre = (eval_pl(base, kl) + eval_pl(base, kr)) / 2
    return _splice(
        base, [(ol, eval_pl(base, ol)), (kl, centre), (kr, centre), (orr, eval_pl(base, orr))]
    )


# ---------------------------------------------------------------------------
# family one: the non-uniform example


def lemma_K(n: int) -> Interval:
    """K_n = [a_n, 1 - a_n] with a_n = 1/(n+2): a_1 = 1/3, decreasing to 0."""
    a_n = Fraction(1, n + 2)
    return (a_n, 1 - a_n)


def lemma_phi(n: int) -> PLMap:
    """Three-lap horseshoe map on K_n, identity outside.

    For n = 1 the inner fold points are 4/9 and 5/9; the last linear piece is
    3x - 4/3 (the value forced by continuity at 5/9 and 2/3).  For n > 1 the
    fold are the endpoints of K_{n-1}: the two outer pieces rise onto K_n and
    the middle piece falls onto K_n.
    """
    if n <= 0:
        raise ValueError("stage must be >= 1")
    divider = (Fraction(4, 9), Fraction(5, 9)) if n == 1 else lemma_K(n - 1)
    return _fold(identity_map(), lemma_K(n), divider)


def lemma_psi(n: int) -> PLMap:
    """Collapse of K_n to 1/2, identity outside K_{n+1}."""
    if n <= 0:
        raise ValueError("stage must be >= 1")
    return _collapse(identity_map(), lemma_K(n), lemma_K(n + 1))


def lemma_nds(num_stages: int = 5, repeats: Optional[Sequence[int]] = None) -> BlockProgram:
    """Blocks B_k = (phi_k repeated, then psi_k), k = 1..num_stages.

    Block k repeats phi_k ``repeats[k-1]`` times, or k times when
    ``repeats`` is None.  Every count is checked before any map is built.
    """
    if _count(num_stages, "num_stages") < 1:
        raise ValueError("need at least one stage")
    if repeats is None:
        repeats = range(1, num_stages + 1)
    if len(repeats) != num_stages:
        raise ValueError(f"{len(repeats)} repeats for {num_stages} stages")
    reps = [_count(r, "repeats") for r in repeats]
    if min(reps) < 1:
        raise ValueError("repeat count must be positive")
    stages = []
    for k, r in enumerate(reps, start=1):
        phi, psi = lemma_phi(k), lemma_psi(k)
        stages.append(
            Stage(
                label=f"B{k}",
                maps=tuple([phi] * r + [psi]),
                meta={"k": k, "repeats": r},
            )
        )
    return BlockProgram(stages=tuple(stages), tail_map=stages[-1].maps[-1])


# ---------------------------------------------------------------------------
# family two: perturbations of the blow-up limit map


@dataclass(frozen=True)
class StageSpec:
    block: Block
    a: int

    def __post_init__(self) -> None:
        if _count(self.a, "a") < 1:
            raise ValueError("repeat count a must be >= 1")

    @property
    def k(self) -> int:
        return len(self.block)

    @property
    def p(self) -> int:
        return evaluate_e(self.block)

    @property
    def q(self) -> int:
        return 2 ** self.k - self.p


def default_stages() -> tuple[StageSpec, ...]:
    return (
        StageSpec(Block("1"), 3),
        StageSpec(Block("11"), 5),
        StageSpec(Block("111"), 7),
    )


@dataclass(frozen=True)
class StageParams:
    """The stage blocks, with cylinder block lengths increasing strictly."""

    stages: tuple[StageSpec, ...] = field(default_factory=default_stages)

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("need at least one stage")
        ks = [s.k for s in self.stages]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("cylinder block lengths must increase strictly")

    def stage(self, i: int) -> StageSpec:
        """Stage i, counting from 1; any other index raises ValueError."""
        if not 1 <= i <= len(self.stages):
            raise ValueError(f"stage index {i} outside 1..{len(self.stages)}")
        return self.stages[i - 1]


def stack_rel(n: int) -> Fraction:
    """|K^n| / |G| = 1 - 2^(-n-1): increasing to 1, and above 1/3 from n = 1."""
    return 1 - Fraction(1, 2 ** (n + 1))


def build_k_interval(bundle: LimitMapBundle, n: int, j: int) -> Interval:
    """K^n_j: the centred level-n stack interval inside the j-th orbit image.

    The limit map is linear and increasing on every blown interval, so the
    j-th image of the centred stack is again centred with the same relative
    length; the interval is computed in closed form.
    """
    if n < 0:
        raise ValueError("stack level must be >= 0")
    try:
        l, r = bundle.atlas.interval_of(Code(j))
    except KeyError as e:
        raise ValueError(f"orbit index {j} is not in the atlas") from e
    rel = stack_rel(n)  # level 0 is legal here: it serves as the fold divider
    mid = (l + r) / 2
    half = rel * (r - l) / 2
    return (mid - half, mid + half)


def _collar_width(
    gap: tuple[Fraction, Fraction],
    image_hull: Interval,
    f_at_inner: Fraction,
    f_at_outer: Fraction,
) -> Fraction:
    """Width of the thin ramp through which lambda joins the identity.

    The ramp sits just outside the permuted hull.  Its width is capped so
    that the limit map's values over the ramp stay inside the image hull;
    that keeps the uniform distance of the perturbed maps from the limit map
    bounded by the hull's image length.
    """
    u, v = gap
    width_cap = (v - u) / 2
    slope = (f_at_inner - f_at_outer) / (v - u)
    if slope == 0:
        return width_cap
    if f_at_outer > f_at_inner:
        margin = image_hull[1] - f_at_inner
    else:
        margin = f_at_inner - image_hull[0]
    if margin <= 0:
        return (v - u) / 16
    return min(width_cap, margin / (2 * abs(slope)))


def build_lambda(bundle: LimitMapBundle, n_block: Block) -> PLMap:
    """Interval lift of the symbol-reversing involution for one cylinder.

    Inside the cylinder hull the blown intervals are permuted (each mapped
    increasingly onto its partner); everywhere else the map is the identity
    except for a thin collar on each side of the hull where the graph climbs
    from the diagonal to the permuted boundary value.
    """
    atlas = bundle.atlas
    f = bundle.f
    run = atlas.cylinder(n_block.word)
    k, e = len(n_block), evaluate_e(n_block)
    jl, jr = atlas.hull(k, e)
    image_hull = atlas.hull(k, (e + 1) % 2 ** k)

    flip = (1 << (atlas.depth + 1 - k)) - 1  # tau keeps the first k letters: the low D+1-k bits
    points: list[tuple[Fraction, Fraction]] = []
    for i in run:
        l, r = atlas.intervals[i]
        l2, r2 = atlas.intervals[i ^ flip]
        points.append((l, l2))
        points.append((r, r2))

    # collars: locate the spatial neighbours of the hull
    if jl > 0:
        u = atlas.intervals[run[0] - 1][1]
        delta = _collar_width(
            (u, jl), image_hull, f_at_inner=eval_pl(f, jl), f_at_outer=eval_pl(f, u)
        )
        points.append((jl - delta, jl - delta))
    if jr < 1:
        w = atlas.intervals[run[-1] + 1][0]
        delta = _collar_width(
            (jr, w), image_hull, f_at_inner=eval_pl(f, jr), f_at_outer=eval_pl(f, w)
        )
        points.append((jr + delta, jr + delta))
    return _splice(identity_map(), points)


def _visit(bundle: LimitMapBundle, params: StageParams, i: int) -> int:
    """Stage i's visit index p; refused at the frontier code, which f_D sends into a gap."""
    p = params.stage(i).p
    if p == bundle.frontier_code.index:
        raise ValueError(f"orbit index {p} is the frontier code {bundle.frontier_code}")
    return p


def build_phi_stage(
    bundle: LimitMapBundle, params: StageParams, i: int, n: int
) -> PLMap:
    """Limit map with a three-lap fold spliced over K^n at the visit point.

    The three parts of K^n delimited by K^(n-1) map onto the whole of K^n
    (outer parts rising, middle falling) and the limit map is applied after
    the fold, so the stack interval covers its successor three times.  Level
    n = 0 is rejected: the fold needs the inner divider.
    """
    if n < 1:
        raise ValueError("fold level must be >= 1")
    p = _visit(bundle, params, i)
    stack, divider = build_k_interval(bundle, n, p), build_k_interval(bundle, n - 1, p)
    return _fold(bundle.f, stack, divider)


def build_psi_stage(
    bundle: LimitMapBundle, params: StageParams, i: int, n: int
) -> PLMap:
    """Limit map with K^n collapsed to the centre of the next blown interval.

    Constant on K^n, equal to the limit map outside K^(n+1), linear on the
    two joining pieces; both one-sided values at the splice boundary lie in
    the image interval, so the result is continuous.
    """
    if n < 1:
        raise ValueError("collapse level must be >= 1")
    p = _visit(bundle, params, i)
    return _collapse(bundle.f, build_k_interval(bundle, n, p), build_k_interval(bundle, n + 1, p))


def _fold_unit(
    bundle: LimitMapBundle, params: StageParams, i: int, n: int
) -> list[PLMap]:
    """One fold-after-reverse step (elem), then 2^k - 1 plain steps (eta).

    Every eta step of the unit is the same map object.  lambda keeps the
    cylinder of the block and f_D carries it onto the successor block's
    cylinder, so at the hull's interval ends both steps take the interval
    ends of that cylinder as values (the fold's stack lies inside one
    interval; the frontier code's image ends are breakpoint values of f_D,
    which ``compose`` passes on).  ``compose`` computes the other values
    afresh; the steps hold the atlas's own objects instead, found by value:
    at depth 12 that saves ~28k copies (3.4 MB).
    """
    spec = params.stage(i)
    lam = build_lambda(bundle, spec.block)
    atlas = bundle.atlas
    # keyed by integer pairs: hashing Fraction keys made a depth-12 build
    # 0.1-0.2 s slower on a 2-core host
    ends = {
        (v.numerator, v.denominator): v
        for j in atlas.cylinder(block_successor(spec.block).word)
        for v in atlas.intervals[j]
    }

    def held(m: PLMap) -> PLMap:
        return PLMap(m.xs, tuple(ends.get((y.numerator, y.denominator), y) for y in m.ys))

    eta = held(compose(bundle.f, lam))
    elem = held(compose(build_phi_stage(bundle, params, i, n), lam))
    return [elem] + [eta] * (2 ** spec.k - 1)


def build_g1inf(
    bundle: LimitMapBundle, params: StageParams, i: int, n: int
) -> BlockProgram:
    """The single-stage periodic probe: fold step, then 2^k - 1 plain steps."""
    spec = params.stage(i)
    stage = Stage(
        label=f"g{i}n{n}",
        maps=tuple(_fold_unit(bundle, params, i, n)),
        meta={"i": i, "n": n, "k": spec.k, "p": spec.p},
    )
    return BlockProgram(
        stages=(stage,),
        frontier=tuple(bundle.frontier_intervals()),
        exact_horizon=bundle.exact_horizon,
    )


def build_main_nds(bundle: LimitMapBundle, params: StageParams) -> BlockProgram:
    """The full uniformly convergent sequence: blocks B_1, B_2, ...

    Block n consists of a_n rounds of (fold-after-reverse, then 2^k - 1
    reverse-and-map steps) followed by one collapse map; afterwards the tail
    repeats the limit map.
    """
    stages = []
    for i, spec in enumerate(params.stages, start=1):
        unit = _fold_unit(bundle, params, i, i)
        maps = tuple(unit * spec.a + [build_psi_stage(bundle, params, i, i)])
        stages.append(
            Stage(
                label=f"B{i}",
                maps=maps,
                meta={
                    "i": i,
                    "k": spec.k,
                    "a": spec.a,
                    "p": spec.p,
                    "block": spec.block.word,
                },
                image_hull=bundle.atlas.hull(spec.k, (spec.p + 1) % 2 ** spec.k),
            )
        )
        expected = spec.a * 2 ** spec.k + 1
        assert len(maps) == expected
    return BlockProgram(
        stages=tuple(stages),
        tail_map=bundle.f,
        frontier=tuple(bundle.frontier_intervals()),
        exact_horizon=bundle.exact_horizon,
    )


def times_R(params: StageParams, i: int, m_max: int) -> list[int]:
    """Arithmetic sampling times q - 1 + m * 2^k for one probe stage."""
    if m_max < 1:
        raise ValueError("need at least one time")
    spec = params.stage(i)
    step = 2 ** spec.k
    return [spec.q - 1 + m * step for m in range(1, m_max + 1)]


def times_S(params: StageParams, count: int) -> list[int]:
    """The stage-stitched sampling sequence.

    Stage n contributes a_n terms spaced 2^(k_n), offset q_n - 1 past the
    previous stage's last term (the first stage starts from 0).
    """
    if count < 1:
        raise ValueError("need at least one time")
    out: list[int] = []
    base = 0
    for spec in params.stages:
        step = 2 ** spec.k
        for m in range(1, spec.a + 1):
            out.append(base + spec.q - 1 + m * step)
            if len(out) == count:
                return out
        base = out[-1]
    raise ValueError(f"count {count} exceeds configured stages ({len(out)} times)")
