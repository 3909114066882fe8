"""Differential tests: ``analysis.ly_classify`` against its oracle.

``ly_classify`` reads each start's tail window from a memo kept on the
program, and keeps the tail minimum and maximum as integer pairs compared by
cross-multiplication.  ``oracles.ly_classify`` computes both trajectories on
every call and compares ``Fraction`` distances.  They are compared here on
the cases a memo or an integer comparison could get wrong: repeated pairs in
random order, one start queried at a horizon and then at a larger and a
smaller one, equal starts, starts given as ``int`` and as ``Fraction``,
distances exactly equal to delta, and two programs that share a start.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ndslab.acceptance import grid_in
from ndslab.analysis import ly_classify
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import BlockProgram, Stage, StageParams, build_main_nds
from test_float_filters import crowded_plmaps, rationals01

deltas = st.fractions(min_value=Fraction(1, 997), max_value=1, max_denominator=997)


def _program(maps) -> BlockProgram:
    return BlockProgram(stages=(Stage("s", tuple(maps)),), tail_mode="cycle")


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
