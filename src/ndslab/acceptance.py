"""The verification battery: one callable per shipped guarantee.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes the battery in order and prints one PASS/FAIL line per criterion.
The parameters frozen here (depths, grids, tolerances, candidate recipes,
random seeds) are the published contract of the package.  The scans behind
criteria 1, 7c, 7d and 7e are parametrised helpers whose defaults are those
frozen values, and ``entropy_inputs`` holds the candidates and scales of
criteria 7b and 8.  The tests, the CLI ``verify-all`` command, the CLI scan
commands and the defaults of ``ndslab entropy`` all call into this module, so
there is exactly one source of truth.

Criterion 7c is expected to fail and is reported honestly: an exactly
constant trajectory tail would require a common fixed point of all later
maps of the sequence, but the collapse maps send their stack onto interval
*centres*, which the limit map keeps moving along the orbit.  The no-LY
mechanism of the construction is the distality floor (criterion 7e) plus
pairwise merging, not literal constancy; see the README for the argument.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import wraps
from fractions import Fraction
from itertools import combinations
from time import perf_counter
from typing import Callable, Optional

from .analysis import (
    DistalityRow,
    distality_report,
    entropy_estimate,
    eventual_constancy,
    greedy_separated,
    ly_classify,
    verify_separated,
    convergence_report,
)
from .blowup import (
    build_atlas,
    build_limit_map,
    hull_nesting_holds,
    one_code_per_deep_cylinder,
    order_isomorphism_holds,
    verify_hull_periodicity,
    verify_orbit_action,
)
from .constructions import (
    BlockProgram,
    Stage,
    StageParams,
    build_k_interval,
    build_main_nds,
    lemma_K,
    lemma_phi,
    lemma_psi,
    times_S,
)
from .dynamics import code_rel_trajectory
from .plmap import (
    compose_chain,
    eval_pl,
    identity_map,
    interval_image,
    tent_map,
)
from .symbolic import (
    ZERO,
    alpha,
    all_blocks,
    all_codes,
    block_successor,
    canonicalize,
    eta_orbit,
)

DEFAULT_DEPTH = 12
DEFAULT_RHO = Fraction(1, 2)
DEFAULT_BASE = 4


@dataclass
class CriterionResult:
    number: str
    name: str
    ok: bool
    expected_fail: bool
    details: str
    elapsed: float

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        note = " (known limitation, see README)" if (not self.ok and self.expected_fail) else ""
        return f"[{verdict}] {self.number} {self.name}: {self.details}{note} [{self.elapsed:.1f}s]"


def _criterion(
    number: str, name: str, expected_fail: bool = False, limit: Optional[float] = None
):
    """Turn a ``check(...) -> (ok, details)`` into a timed criterion.

    The decorated function takes the check's arguments and returns its
    :class:`CriterionResult`.  With a runtime ``limit`` (seconds) the
    criterion also fails when the check takes that long, and the details
    say so.
    """

    def decorate(check: Callable[..., tuple[bool, str]]) -> Callable[..., CriterionResult]:
        @wraps(check)
        def criterion(*args, **kwargs) -> CriterionResult:
            t0 = perf_counter()
            ok, details = check(*args, **kwargs)
            dt = perf_counter() - t0
            if limit is not None:
                ok = ok and dt < limit
                details += f"; runtime limit {limit:g}s"
            return CriterionResult(number, name, ok, expected_fail, details, dt)

        return criterion

    return decorate


def grid_in(l: Fraction, r: Fraction, m: int) -> list[Fraction]:
    """m interior midpoints of [l, r], uniformly spaced."""
    return [l + Fraction(2 * j + 1, 2 * m) * (r - l) for j in range(m)]


# ---------------------------------------------------------------------------
# shared inputs of the criteria, the tests and the CLI


def autonomous_program(f, bundle=None) -> BlockProgram:
    """f at every time, with the frontier and exact horizon of the bundle f comes from."""
    return BlockProgram(
        stages=(Stage("auto", (f,)),),
        frontier=() if bundle is None else tuple(bundle.frontier_intervals()),
        exact_horizon=None if bundle is None else bundle.exact_horizon,
    )


def main_candidates(bundle) -> list[Fraction]:
    """The frozen candidate recipe for the separated-set counts.

    Dense interior grids inside every blown interval of depth <= 4 plus
    grids in every layout gap adjacent to one of them; the gaps carry the
    steep joining pieces of the limit map, where orbits spread fastest.
    """
    atlas = bundle.atlas
    cands: list[Fraction] = []
    density = {0: 400, 1: 240, 2: 120, 3: 50, 4: 16}
    codes = atlas.codes
    for c, iv in zip(codes, atlas.intervals):
        if c.depth <= 4:
            cands += grid_in(*iv, density[c.depth])
    pairs = zip(zip(codes, atlas.intervals), zip(codes[1:], atlas.intervals[1:]))
    for (c1, iv1), (c2, iv2) in pairs:
        if min(c1.depth, c2.depth) <= 4 and iv2[0] > iv1[1]:
            cands += grid_in(iv1[1], iv2[0], 60)
    return cands


def epsilon_zero(bundle) -> Fraction:
    l, r = bundle.atlas.intervals[0]
    return (r - l) / 3


def entropy_inputs(bundle=None) -> tuple[list[Fraction], Fraction]:
    """(candidates, epsilon) of the battery's entropy counts.

    Given the main family's bundle: criterion 7b's ``main_candidates`` at
    eps0/2.  Without one: criterion 8's grid of step 2^-12 at scale 1/6.
    """
    if bundle is not None:
        return main_candidates(bundle), epsilon_zero(bundle) / 2
    return [Fraction(j, 2 ** 12) for j in range(2 ** 12 + 1)], Fraction(1, 6)


# ---------------------------------------------------------------------------
# criteria


def reversing_orbit_scan(max_k: int = 6) -> tuple[int, Optional[str]]:
    """Orbit closure and single cylinder visit for every block of length <= max_k.

    Returns the number of blocks verified and the first failure, or None.
    Raises ValueError when ``max_k`` < 1.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    checked = 0
    for k in range(1, max_k + 1):
        period = 2 ** k
        for w in all_blocks(k):
            orbit = eta_orbit(w, ZERO, period)
            if orbit[-1] != ZERO:
                return checked, f"orbit of the zero code does not close for {w}"
            pts = orbit[:-1]
            if len(set(pts)) != period:
                return checked, f"orbit of the zero code degenerate for {w}"
            inside = [c for c in pts if c.starts_with(w.word)]
            if len(inside) != 1 or inside[0] != canonicalize(w.word, 0):
                return checked, f"cylinder visit wrong for {w}"
            checked += 1
    return checked, None


@_criterion("1", "reversing-step orbit closure", limit=5.0)
def criterion_1():
    """Reversing-step periodicity, exhaustively over all blocks of length <= 6."""
    checked, failure = reversing_orbit_scan()
    if failure is not None:
        return False, failure
    return True, f"{checked} blocks verified exactly"


@_criterion("2", "cylinder first-return times")
def criterion_2():
    """Every k-cylinder, k <= 8, first returns to itself after exactly 2^k."""
    for k in range(1, 9):
        for w in all_blocks(k):
            x, steps = w, 0
            while True:
                x = block_successor(x)
                steps += 1
                if x.word == w.word:
                    break
                if steps > 2 ** k:
                    return False, f"no return for {w.word}"
            if steps != 2 ** k:
                return False, f"return time {steps} != 2^{k} for {w.word}"
    return True, "all cylinders of length <= 8 return in exactly 2^k steps"


@_criterion("3", "block collapse to the flattening map")
def criterion_3():
    """Block and prefix collapse of the stacked-interval family, exact."""
    grid = [Fraction(i, 512) for i in range(513)]
    prefix_maps = []
    for k in range(1, 6):
        phi, psi = lemma_phi(k), lemma_psi(k)
        block = compose_chain([phi] * k + [psi])
        for x in grid:
            if eval_pl(block, x) != eval_pl(psi, x):
                return False, f"block {k} does not collapse at x={x}"
        prefix_maps += [phi] * k + [psi]
        prefix = compose_chain(prefix_maps)
        for x in grid:
            if eval_pl(prefix, x) != eval_pl(psi, x):
                return False, f"prefix of {k} blocks differs at x={x}"
    return True, "blocks 1..5 collapse exactly on the 1/512 grid"


@_criterion("4", "three-branch horseshoe counting", limit=60.0)
def criterion_4():
    """Greedy horseshoe counts: 3^i separated points for i <= 5."""
    prog = autonomous_program(lemma_phi(1))
    a1, b1 = lemma_K(1)
    eps = (b1 - a1) / 10
    cands = [a1 + Fraction(j, 3 ** 7) * (b1 - a1) for j in range(3 ** 7 + 1)]
    times = [1, 2, 3, 4, 5]
    table = entropy_estimate(prog, times, [eps], times, cands)
    cards = [card for _, _, card, _ in table.rows]
    for i, card in enumerate(cards, start=1):
        if card < 3 ** i:
            return False, f"i={i}: {card} < {3 ** i}"
    return True, f"cards {cards} vs bounds {[3**i for i in range(1,6)]}"


@_criterion("5", "blow-up structure at depth 10")
def criterion_5():
    """Atlas structure at depth 10: order, action, hull periodicity."""
    atlas = build_atlas(10, DEFAULT_RHO, DEFAULT_BASE)
    bundle = build_limit_map(atlas)
    if not order_isomorphism_holds(atlas):
        return False, "interval order does not match code order"
    if not one_code_per_deep_cylinder(atlas):
        return False, "deep-cylinder bijection broken"
    for c, iv in zip(atlas.codes, atlas.intervals):
        if c == bundle.frontier_code:
            continue
        if interval_image(bundle.f, *iv) != atlas.interval_of(alpha(c)):
            return False, f"interval action wrong at {c}"
    failure = verify_orbit_action(bundle, bundle.exact_horizon)
    if failure is not None:
        return False, f"orbit action fails at step {failure}"
    for n in range(1, 11):
        failure = verify_hull_periodicity(bundle, n)
        if failure is not None:
            return False, f"hull cycle broken at level {n}, step {failure}"
    full = sum(2 ** n <= bundle.exact_horizon for n in range(1, 11))
    for n in range(1, 10):
        for k in range(2 ** n):
            for bit in (0, 1):
                if not hull_nesting_holds(atlas, n, k, bit):
                    return False, f"nesting broken at ({n},{k},{bit})"
    return True, (
        "order, deep-cylinder bijection, interval action, "
        f"hull cycles (full cycles certified up to level {full}), nesting"
    )


@_criterion("6", "zero-entropy proxy of the limit map")
def criterion_6():
    """Separated-set entropy proxy of the limit map stays under 0.05."""
    atlas = build_atlas(10, DEFAULT_RHO, DEFAULT_BASE)
    bundle = build_limit_map(atlas)
    prog = autonomous_program(bundle.f, bundle)
    horizon = 2 ** 8
    eps = atlas.min_hull_gap(10) / 2
    cands = [Fraction(2 * j + 1, 1024) for j in range(512)]
    rep = greedy_separated(prog, cands, list(range(1, horizon + 1)), horizon, eps)
    est = rep.entropy_estimate
    return est <= 0.05, f"estimate {est:.4f} (cardinality {rep.cardinality}) <= 0.05"


def _main_fixture():
    bundle = build_limit_map(build_atlas(DEFAULT_DEPTH, DEFAULT_RHO, DEFAULT_BASE))
    params = StageParams()
    return bundle, params, build_main_nds(bundle, params)


@_criterion("7a", "uniform convergence envelopes")
def criterion_7a(fixture):
    """Uniform-convergence envelopes under the hull-image bounds, decreasing."""
    bundle, params, program = fixture
    rows, strict = convergence_report(bundle, program)
    for r in rows:
        if not r.within_bound:
            return False, f"{r.label}: envelope {float(r.envelope):.4f} exceeds bound"
    if not strict:
        return False, "envelopes not strictly decreasing"
    desc = ", ".join(f"{r.label}={float(r.envelope):.4f}<={float(r.bound):.4f}" for r in rows)
    return True, desc


@_criterion("7b", "separated-set growth along S")
def criterion_7b(fixture):
    """Separated-set counts along the stitched sampling times."""
    bundle, params, program = fixture
    S = times_S(params, 8)
    cands, eps = entropy_inputs(bundle)
    # n = 3 comes first: perfbench's test_default_seed_reproduces_7b_inputs
    # checks the entropy-main workload against 7b's first greedy_separated call
    rep3 = greedy_separated(program, cands, S, 3, eps)
    rep8 = greedy_separated(program, cands, S, 8, eps)
    if rep3.cardinality < 9:
        return False, f"n=3 count {rep3.cardinality} < 9"
    if rep8.cardinality < 81:
        return False, f"n=8 count {rep8.cardinality} < 81"
    if not (verify_separated(program, rep3) and verify_separated(program, rep8)):
        return False, "witness sets fail post-hoc verification"
    # the headline of entropy_estimate's table over the cells n = 1, 3, 8
    rep1 = greedy_separated(program, cands, S, 1, eps)
    headline = max(r.entropy_estimate for r in (rep1, rep3, rep8))
    target = 0.9 * math.log(3)
    if headline < target:
        return False, f"headline {headline:.4f} < {target:.4f}"
    return True, (
        f"counts n=3:{rep3.cardinality}>=9, n=8:{rep8.cardinality}>=81, "
        f"headline {headline:.3f}>=0.9*log3"
    )


def settle_scan(bundle, program) -> tuple[int, int]:
    """(settled, sampled): points whose trajectory ends exactly constant.

    The sample is a 50-point grid in every blown interval of depth <= 3 plus
    the endpoints of the stacks K^n_j for n = 1..3, j = 0, 1; the horizon is
    one pass over the program's stages.
    """
    pts: list[Fraction] = []
    for c in all_codes(min(3, bundle.atlas.depth)):
        pts += grid_in(*bundle.atlas.interval_of(c), 50)
    for n in (1, 2, 3):
        for j in (0, 1):
            pts += build_k_interval(bundle, n, j)
    T = program.stage_length
    settled = sum(1 for x in pts if eventual_constancy(program, x, T) is not None)
    return settled, len(pts)


@_criterion("7c", "eventual constancy of sampled trajectories", expected_fail=True)
def criterion_7c(fixture):
    """Settlement to exactly constant trajectories (expected to fail)."""
    bundle, params, program = fixture
    settled, sampled = settle_scan(bundle, program)
    return settled == sampled, (
        f"{settled}/{sampled} sampled points settle within {program.stage_length} steps"
    )


def ly_scan(
    bundle,
    program,
    pairs: int = 1000,
    max_code_depth: int = 2,
    delta: Optional[Fraction] = None,
    seed: int = 11,
) -> tuple[Fraction, dict[str, int]]:
    """Classify random pairs drawn from distinct blown intervals.

    Each pair takes one point of a 10-point grid in each of two distinct
    intervals of depth <= max_code_depth, drawn with ``random.Random(seed)``,
    and is classified over one pass of the program's stages at scale delta
    (default eps0/4).  Returns delta and the count per classification.
    Raises ValueError before drawing when ``pairs`` < 1, ``max_code_depth``
    is outside 0..D at atlas depth D or ``delta`` <= 0.  Depth 0 alone holds
    two codes, so at least two intervals always qualify.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    D = bundle.atlas.depth
    if not 0 <= max_code_depth <= D:
        raise ValueError(f"max code depth {max_code_depth} outside 0..{D}")
    T = program.stage_length
    if delta is None:
        delta = epsilon_zero(bundle) / 4
    if delta <= 0:
        raise ValueError("delta must be positive")
    groups = [grid_in(*bundle.atlas.interval_of(c), 10) for c in all_codes(max_code_depth)]
    rng = random.Random(seed)
    counts = {"LY-candidate": 0, "asymptotic-candidate": 0, "distal-candidate": 0}
    made = 0
    while made < pairs:
        gi, gj = rng.randrange(len(groups)), rng.randrange(len(groups))
        if gi == gj:
            continue
        x, y = rng.choice(groups[gi]), rng.choice(groups[gj])
        counts[ly_classify(program, x, y, T, delta).classification] += 1
        made += 1
    return delta, counts


@_criterion("7d", "LY-candidate scan")
def criterion_7d(fixture):
    """No LY-candidates among pairs from distinct shallow intervals."""
    bundle, params, program = fixture
    _, counts = ly_scan(bundle, program)
    bad = counts["LY-candidate"]
    return bad == 0, f"{bad}/1000 LY-candidates at delta=eps0/4"


def distality_scan(
    bundle, program, max_code_depth: int = 4, steps: Optional[int] = None
) -> tuple[int, list[DistalityRow]]:
    """(steps, rows) of ``distality_report`` over all pairs of distinct codes
    of depth <= max_code_depth; steps default to half the exact horizon.

    A max_code_depth outside 0..D-1 raises ValueError before any code is listed.
    """
    D = bundle.atlas.depth
    if not 0 <= max_code_depth < D:
        raise ValueError(f"max code depth {max_code_depth} outside 0..{D - 1}")
    if steps is None:
        steps = bundle.exact_horizon // 2
    pairs = list(combinations(all_codes(max_code_depth), 2))
    return steps, distality_report(bundle, program, pairs, steps)


@_criterion("7e", "distality of interval pairs")
def criterion_7e(fixture):
    """Distality floor for interval pairs of depth <= 4 over half the exact horizon."""
    bundle, params, program = fixture
    _, rows = distality_scan(bundle, program)
    bad = [r for r in rows if not r.ok]
    if bad:
        return False, f"{len(bad)} pairs below bound, first {bad[0].pair}"
    return True, f"all {len(rows)} pairs keep their split-depth gap bound"


@_criterion("8", "estimator sanity oracles")
def criterion_8():
    """Estimator oracle: tent map near log 2, identity exactly zero."""
    tent = autonomous_program(tent_map())
    grid, eps = entropy_inputs()
    table = entropy_estimate(tent, list(range(1, 11)), [eps], [10], grid)
    if not (0.6 <= table.headline <= 0.75):
        return False, f"tent headline {table.headline:.4f} outside [0.6, 0.75]"
    ident = autonomous_program(identity_map())
    zero = entropy_estimate(ident, [1, 2, 3], [Fraction(1)], [3], grid[::64])
    if zero.headline != 0.0:
        return False, f"identity headline {zero.headline} != 0"
    return True, f"tent headline {table.headline:.4f} around log2, identity 0.0"


@_criterion("9", "cross-depth model consistency")
def criterion_9():
    """Unflagged trajectories agree across depths 6 and 7 in orbit coordinates."""
    bundles, progs = {}, {}
    for d in (6, 7):
        bundles[d] = bundle = build_limit_map(build_atlas(d, DEFAULT_RHO, DEFAULT_BASE))
        progs[d] = (build_main_nds(bundle, StageParams()), autonomous_program(bundle.f, bundle))
    starts = [
        (c, rel)
        for c in all_codes(3)
        for rel in (Fraction(1, 7), Fraction(1, 2), Fraction(6, 7))
    ]
    horizon = 32
    compared = 0
    for p6, p7 in zip(progs[6], progs[7]):
        for cr in starts:
            t6 = code_rel_trajectory(bundles[6], p6, cr, horizon)
            t7 = code_rel_trajectory(bundles[7], p7, cr, horizon)
            if t6 is None or t7 is None:
                continue
            if t6 != t7 or len(t6) != horizon + 1:
                return False, f"divergence from {cr[0]} rel {cr[1]}"
            compared += 1
    return True, f"{compared} trajectory pairs agree exactly in orbit coordinates"


def run_all(echo: Callable[[str], None] = print) -> list[CriterionResult]:
    """Execute the full battery, printing one line per criterion."""
    results = [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
    ]
    fixture = _main_fixture()
    results += [
        criterion_7a(fixture),
        criterion_7b(fixture),
        criterion_7c(fixture),
        criterion_7d(fixture),
        criterion_7e(fixture),
        criterion_8(),
        criterion_9(),
    ]
    for r in results:
        echo(r.line())
    return results
