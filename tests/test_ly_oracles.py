"""Differential tests: ``analysis.ly_classify`` against its oracle.

``ly_classify`` reads each start's tail window from a memo kept on the
program, keyed by the start's numerator, denominator and the horizon.  A
window is kept as ``(L, numerators)`` over the common denominator ``L`` of
its values, so a pair's distances are integers over one denominator and the
tail minimum and maximum come from ``min`` and ``max``.
``oracles.ly_classify`` computes both trajectories on every call and
compares ``Fraction`` distances.  They are compared here on the cases a
memo or an integer comparison could get wrong: repeated pairs in random
order, one start queried at a horizon and then at a larger and a smaller
one, equal starts, starts given as ``int``, ``str``, ``float`` and
``Fraction``, delta given as ``int``, ``float`` and ``Fraction``, distances
exactly equal to delta, windows whose denominators are large pairwise
coprime primes (so ``L`` is their product), and two programs that share a
start.  A call whose pair is already in the memo computes no trajectory.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ndslab import analysis
from ndslab.acceptance import autonomous_program, grid_in
from ndslab.analysis import ly_classify
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import BlockProgram, Stage, StageParams, build_main_nds
from ndslab.plmap import pl_from_points, tent_map
from test_float_filters import crowded_plmaps, rationals01

deltas = st.fractions(min_value=Fraction(1, 997), max_value=1, max_denominator=997)


def _program(maps) -> BlockProgram:
    return BlockProgram(stages=(Stage("s", tuple(maps)),))


programs = st.lists(crowded_plmaps(), min_size=1, max_size=3).map(_program)


def _check(prog, x, y, T, delta):
    got = ly_classify(prog, x, y, T, delta)
    assert got == oracles.ly_classify(prog, x, y, T, delta)
    assert type(got.tail_min) is type(got.tail_max) is Fraction


@given(programs, st.lists(rationals01, min_size=1, max_size=4), deltas, st.data())
@settings(max_examples=100, deadline=None)
def test_repeated_pairs_in_random_order(prog, starts, delta, data):
    T = data.draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=len(starts) - 1)
    for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=12)):
        _check(prog, starts[i], starts[j], T, delta)


@given(programs, rationals01, rationals01, deltas, st.data())
@settings(max_examples=100, deadline=None)
def test_horizon_changes_take_fresh_windows(prog, x, y, delta, data):
    T = data.draw(st.integers(min_value=2, max_value=10))
    larger = data.draw(st.integers(min_value=T + 1, max_value=20))
    smaller = data.draw(st.integers(min_value=1, max_value=T - 1))
    for horizon in (T, larger, smaller, T):
        _check(prog, x, y, horizon, delta)


@pytest.mark.parametrize("start", [0, 1])
@given(programs, rationals01, deltas)
@settings(max_examples=50, deadline=None)
def test_equal_and_int_starts(start, prog, y, delta):
    for x, other in ((start, Fraction(start)), (Fraction(start), start), (y, y)):
        _check(prog, x, other, 7, delta)
        _check(prog, x, y, 7, delta)
        _check(prog, y, x, 7, delta)


@given(programs, rationals01, rationals01, st.data())
@settings(max_examples=150, deadline=None)
def test_distances_equal_to_delta(prog, x, y, data):
    T = data.draw(st.integers(min_value=1, max_value=12))
    tx, ty = oracles.trajectory(prog, x, T), oracles.trajectory(prog, y, T)
    dists = [abs(a - b) for a, b in zip(tx.values[T // 2 :], ty.values[T // 2 :])]
    positive = [d for d in dists if d > 0]
    assume(positive)
    # delta at the tail minimum, the tail maximum or a distance between them
    _check(prog, x, y, T, data.draw(st.sampled_from(positive)))


@given(programs, programs, rationals01, rationals01, deltas)
@settings(max_examples=100, deadline=None)
def test_programs_sharing_a_start(p, q, x, y, delta):
    for prog, a, b in ((p, x, y), (q, x, y), (p, y, x), (q, x, x), (p, x, y)):
        _check(prog, a, b, 9, delta)


def test_main_program_pairs():
    bundle = build_limit_map(build_atlas(6, Fraction(1, 2), 4))
    prog = build_main_nds(bundle, StageParams())
    atlas = bundle.atlas
    groups = [grid_in(*atlas.interval_of(c), 10) for c in atlas.codes if c.depth <= 2]
    rng = random.Random(0)
    for _ in range(40):
        x, y = rng.choice(rng.choice(groups)), rng.choice(rng.choice(groups))
        _check(prog, x, y, prog.stage_length, Fraction(1, 200))


def _primes_above(n: int, count: int) -> list[int]:
    found = []
    while len(found) < count:
        n += 1
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            found.append(n)
    return found


MERSENNE = [2 ** k - 1 for k in (31, 61, 89, 107, 127)]
PRIMES = MERSENNE + _primes_above(10 ** 6, 25)


def _two_flats(p: int, a: int, r: int, b: int, down: bool):
    """Flat at a/p on [0, 1/3] and at b/r on [2/3, 1] (swapped when ``down``).

    With a/p <= 1/3 and b/r >= 2/3 an orbit that reaches a flat stays on the
    flats, so its window values are a/p and b/r for the primes of each step.
    """
    lo, hi = Fraction(a, p), Fraction(b, r)
    if down:
        lo, hi = hi, lo
    third = Fraction(1, 3)
    return pl_from_points([(0, lo), (third, lo), (1 - third, hi), (1, hi)])


@st.composite
def coprime_programs(draw):
    """A cycle of two-flat maps, each flat over its own large prime."""
    m = draw(st.integers(min_value=2, max_value=12))
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=2 * m, max_size=2 * m, unique=True))
    maps = []
    for p, r in zip(primes[::2], primes[1::2]):
        a = draw(st.integers(min_value=1, max_value=p // 3))
        b = draw(st.integers(min_value=-(-2 * r // 3), max_value=r - 1))
        maps.append(_two_flats(p, a, r, b, draw(st.booleans())))
    return _program(maps)


@given(coprime_programs(), rationals01, rationals01, deltas, st.data())
@settings(max_examples=100, deadline=None)
def test_large_coprime_denominators(prog, x, y, delta, data):
    T = data.draw(st.integers(min_value=1, max_value=24))
    _check(prog, x, y, T, delta)
    tx, ty = oracles.trajectory(prog, x, T), oracles.trajectory(prog, y, T)
    dists = [abs(a - b) for a, b in zip(tx.values[T // 2 :], ty.values[T // 2 :])]
    for d in dists:
        if d > 0:
            _check(prog, y, x, T, d)


def test_window_over_mersenne_primes():
    maps = [_two_flats(p, 1, p, p - 1, k % 2 == 1) for k, p in enumerate(MERSENNE)]
    prog = _program(maps)
    T = 2 * len(maps) - 1
    for x, y in ((Fraction(1, 7), Fraction(5, 6)), (Fraction(1, 2), Fraction(0)), (1, 0)):
        _check(prog, x, y, T, Fraction(1, 3))
        _check(prog, x, y, T, 1)
    # the window runs from step 4 to 9: values over all five primes
    L, _ = prog._tails[(1, 7, T)]
    assert L == math.prod(MERSENNE)


dyadic = st.builds(Fraction, st.integers(min_value=0, max_value=2 ** 20), st.just(2 ** 20))


def _spellings(v: Fraction) -> list:
    """v as a Fraction, a str, a float (exact for dyadic v) and an int if whole."""
    out = [v, str(v), float(v)]
    if v.denominator == 1:
        out.append(int(v))
    return out


@given(dyadic, dyadic, st.data())
@settings(max_examples=100, deadline=None)
def test_start_and_delta_types(x, y, data):
    prog = autonomous_program(tent_map())
    T = data.draw(st.integers(min_value=1, max_value=12))
    tx, ty = oracles.trajectory(prog, x, T), oracles.trajectory(prog, y, T)
    dists = [abs(a - b) for a, b in zip(tx.values[T // 2 :], ty.values[T // 2 :])]
    d = data.draw(st.sampled_from(dists))
    # tent-map values stay dyadic, so each distance is an exact float too
    delta_values = [1, 1.0, Fraction(1, 3), 0.375] + ([d, float(d)] if d > 0 else [])
    for delta in delta_values:
        want = oracles.ly_classify(prog, x, y, T, delta)
        for a in _spellings(x):
            for b in _spellings(y):
                got = ly_classify(prog, a, b, T, delta)
                assert got == want == oracles.ly_classify(prog, a, b, T, delta)
                assert type(got.tail_min) is type(got.tail_max) is Fraction
    assert len(prog._tails) == len({x, y})


@pytest.mark.parametrize("spellings", [
    [Fraction(1, 2), "1/2", 0.5, "0.5"],
    [Fraction(1), 1, "1", 1.0, True],
    [Fraction(0), 0, "0", 0.0, -0.0],
])
def test_equal_starts_share_one_window(spellings):
    prog = autonomous_program(tent_map())
    for a in spellings:
        for b in spellings:
            _check(prog, a, b, 9, Fraction(1, 4))
    assert len(prog._tails) == 1


def _refuse(*args):
    raise AssertionError("a memo hit computed a trajectory")


@given(programs, rationals01, rationals01, deltas)
@settings(max_examples=50, deadline=None)
def test_memo_hit_computes_no_trajectory(prog, x, y, delta):
    first = ly_classify(prog, x, y, 9, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "trajectory", _refuse)
        assert ly_classify(prog, x, y, 9, delta) == first
        assert ly_classify(prog, y, x, 9, delta) == first
        assert ly_classify(prog, str(y), x, 9, delta) == first
