"""Differential tests: the float-located exact kernels against their oracles.

``eval_pl``, the breakpoint search ``plmap._bisect_right`` (and the
``bisect_left`` that ``compose`` derives from it) and the frontier taint of
``trajectory`` use floats only to locate an answer and decide it exactly.
Each is compared here with the all-``Fraction`` version in ``oracles``, or
with ``bisect`` on the ``Fraction`` breakpoints, on the cases where a float
filter could go wrong: points on or 2^-70 from a breakpoint, breakpoints
closer than float resolution, and frontier endpoints.  The distality minimum
uses no float: it compares orbits as integer numerators over one common
denominator (``analysis._integer_rows``), and is compared with its oracle on
minima reached at many steps or within 2^-70 of each other.  The step memo
that ``trajectory`` takes (and ``distality_report`` shares over its endpoint
orbits) is compared with ``oracles.trajectory`` too, and its saving is
counted.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import constant_map
from ndslab import dynamics
from ndslab.analysis import _integer_rows, _min_gap, distality_report
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import BlockProgram, Stage, StageParams, build_main_nds
from ndslab.dynamics import trajectory
from ndslab.plmap import _bisect_right, eval_pl, pl_from_points
from ndslab.symbolic import all_codes

TINY = Fraction(1, 2 ** 70)

rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=997)


def _near(points):
    """The points, 0 and 1, and everything 2^-70 or 2^-69 away, inside [0,1]."""
    out = {Fraction(0), Fraction(1)}
    for p in points:
        out.update(p + k * TINY for k in (-2, -1, 0, 1, 2))
    return sorted(v for v in out if 0 <= v <= 1)


@st.composite
def crowded_plmaps(draw):
    """PL maps some of whose breakpoints are 2^-70 apart."""
    base = draw(st.lists(rationals01, max_size=5))
    crowd = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=len(base)))
    xs = {Fraction(0), Fraction(1)} | {b for b in base if 0 < b < 1}
    xs |= {b + k * TINY for b, k in zip(base, crowd) if 0 < b + k * TINY < 1}
    xs = sorted(xs)
    ys = draw(st.lists(rationals01, min_size=len(xs), max_size=len(xs)))
    return pl_from_points(zip(xs, ys))


def _same(a: Fraction, b: Fraction) -> bool:
    return (a.numerator, a.denominator) == (b.numerator, b.denominator)


@pytest.fixture(scope="module")
def main_fixture():
    bundle = build_limit_map(build_atlas(6, Fraction(1, 2), 4))
    return bundle, build_main_nds(bundle, StageParams())


class TestEvalPl:
    @given(crowded_plmaps(), rationals01)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_near_breakpoints(self, f, x):
        for p in _near(list(f.xs) + [x]):
            assert _same(eval_pl(f, p), oracles.eval_pl(f, p))

    @pytest.mark.parametrize("k", [1, 2])
    def test_breakpoints_closer_than_float_resolution(self, k):
        third = Fraction(1, 3)
        f = pl_from_points(
            [(0, 0), (third, Fraction(1, 2)), (third + k * TINY, Fraction(1, 5)), (1, 1)]
        )
        assert f.float_xs[1] == f.float_xs[2]
        for p in _near([third, third + k * TINY]):
            assert _same(eval_pl(f, p), oracles.eval_pl(f, p))

    @pytest.mark.parametrize("x", [-TINY, 1 + TINY])
    def test_rejects_points_just_outside(self, x):
        with pytest.raises(ValueError):
            eval_pl(pl_from_points([(0, 0), (1, 1)]), x)

    def test_program_maps(self, main_fixture):
        _, prog = main_fixture
        for f in {id(m): m for s in prog.stages for m in s.maps}.values():
            for p in _near(f.xs[:: max(1, len(f.xs) // 40)]):
                assert _same(eval_pl(f, p), oracles.eval_pl(f, p))


class TestBisect:
    @staticmethod
    def _check(f, p):
        n, d = p.numerator, p.denominator
        r = _bisect_right(f, n, d)
        assert r == bisect_right(f.xs, p)
        # compose's bisect_left: one step back when xs[r-1] is p itself
        b = f.xs[r - 1]
        assert (r - 1 if (b.numerator, b.denominator) == (n, d) else r) == bisect_left(f.xs, p)

    @given(crowded_plmaps(), rationals01)
    @settings(max_examples=150, deadline=None)
    def test_matches_bisect_on_fractions(self, f, x):
        for p in _near(list(f.xs) + [x]):
            self._check(f, p)

    @pytest.mark.parametrize("k", [1, 2])
    def test_breakpoints_closer_than_float_resolution(self, k):
        third = Fraction(1, 3)
        f = pl_from_points([(0, 0), (third - k * TINY, 1), (third, 0), (third + k * TINY, 1), (1, 0)])
        assert f.float_xs[1] == f.float_xs[2] == f.float_xs[3]
        for p in _near(f.xs):
            self._check(f, p)


def _min_gap_of(a, b) -> Fraction:
    """``_min_gap`` of two interval orbits of exact values, through ``_integer_rows``.

    Each is (left orbit, right orbit), as ``distality_report`` computes them
    through one step memo per report; any sequences of ``Fraction``s stand in
    for them.
    """
    L, rows = _integer_rows([*a, *b])
    return Fraction(_min_gap(rows[:2], rows[2:]), L)


@st.composite
def interval_orbit_pairs(draw):
    """Two interval orbits whose gap repeats its minimum or misses it by 2^-70."""
    steps = draw(st.integers(min_value=1, max_value=30))
    base = draw(st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=64))
    offsets = st.sampled_from([0, 0, TINY, 2 * TINY, -TINY, Fraction(1, 1000), Fraction(-1, 8)])
    a, b = ([], []), ([], [])
    for _ in range(steps):
        x = draw(rationals01) / 4
        w = draw(st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=64))
        gap = base + draw(offsets)
        lo, hi = (x, x + w), (x + w + gap, x + w + gap + w)
        if draw(st.booleans()):
            lo, hi = hi, lo
        for orbit, (left, right) in ((a, lo), (b, hi)):
            orbit[0].append(left)
            orbit[1].append(right)
    return a, b


@st.composite
def shared_value_lists(draw):
    """Lists of Fractions that share some value objects and copy others.

    Orbits through one step memo hold one object per distinct step; a copy
    is an equal value held by a distinct object.
    """
    pool = draw(st.lists(st.fractions(max_denominator=2**80), min_size=1, max_size=8))
    pool += [Fraction(v.numerator, v.denominator) for v in pool]  # equal, not identical
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=6), max_size=4))


class TestIntegerRows:
    def test_equal_values_in_distinct_objects(self):
        v = Fraction(3, 7)
        w = Fraction(v.numerator, v.denominator)
        assert w is not v
        L, rows = _integer_rows([[v, Fraction(1, 2)], [w], [Fraction(5, 3), v]])
        assert L == 42
        assert rows == [[18, 21], [18], [70, 18]]

    @given(shared_value_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fractions(self, seqs):
        L, rows = _integer_rows(seqs)
        assert L == math.lcm(*(v.denominator for vs in seqs for v in vs))
        assert [len(r) for r in rows] == [len(vs) for vs in seqs]
        nums = {}
        for vs, row in zip(seqs, rows):
            for v, n in zip(vs, row):
                assert Fraction(n, L) == v
                assert nums.setdefault(v, n) == n  # equal values, equal integers


class TestDistalityMinimum:
    @given(interval_orbit_pairs())
    @settings(max_examples=200, deadline=None)
    # overlapping intervals: every gap is negative and the minimum is 0
    @example((([Fraction(0)], [Fraction(1, 2)]), ([Fraction(1, 4)], [Fraction(3, 4)])))
    def test_matches_reference(self, pair):
        a, b = pair
        assert _same(_min_gap_of(a, b), oracles.min_gap(a, b))

    def test_minimum_at_every_step(self):
        a = ([Fraction(0)] * 9, [Fraction(1, 3)] * 9)
        b = ([Fraction(1, 3) + TINY] * 9, [Fraction(1)] * 9)
        assert _min_gap_of(a, b) == TINY == oracles.min_gap(a, b)

    def test_report_matches_reference(self, main_fixture):
        bundle, prog = main_fixture
        T = 2 ** 5
        pairs = list(combinations(all_codes(3), 2))
        rows = distality_report(bundle, prog, pairs, T)
        orbits = {}
        for c in all_codes(3):
            l, r = bundle.atlas.interval_of(c)
            orbits[str(c)] = (
                oracles.trajectory(prog, l, T).values,
                oracles.trajectory(prog, r, T).values,
            )
        for row in rows:
            a, b = row.pair
            assert _same(row.min_distance, oracles.min_gap(orbits[a], orbits[b]))

    def test_report_keeps_values_that_share_a_numerator(self, main_fixture):
        # the report's step memo is keyed by numerator and denominator; the
        # first step lands on 1/2, 1/3, 1/4, ..., which share a numerator and
        # must still be told apart when the second step looks them up
        bundle, _ = main_fixture
        ends = sorted(v for c in all_codes(2) for v in bundle.atlas.interval_of(c))
        points = {Fraction(0): Fraction(1, 2), Fraction(1): Fraction(1, 2)}
        points.update((e, Fraction(1, k + 2)) for k, e in enumerate(ends))
        f = pl_from_points(points.items())
        prog = BlockProgram(stages=(Stage("s", (f,)),))
        pairs = list(combinations(all_codes(2), 2))
        interval_of = bundle.atlas.interval_of
        for T in (1, 2):
            for row, (a, b) in zip(distality_report(bundle, prog, pairs, T), pairs):
                orbits = [
                    tuple(oracles.trajectory(prog, e, T).values for e in interval_of(c))
                    for c in (a, b)
                ]
                assert _same(row.min_distance, oracles.min_gap(*orbits))

    def test_report_evaluates_each_distinct_step_once(self, main_fixture, monkeypatch):
        bundle, prog = main_fixture
        T = bundle.exact_horizon
        calls = []

        def counting_eval_pl(f, x):
            calls.append((f, x))
            return eval_pl(f, x)

        monkeypatch.setattr(dynamics, "eval_pl", counting_eval_pl)
        pairs = list(combinations(all_codes(3), 2))
        rows = distality_report(bundle, prog, pairs, T)
        orbits, distinct = {}, set()
        for c in all_codes(3):
            ends = tuple(oracles.trajectory(prog, e, T).values for e in bundle.atlas.interval_of(c))
            for vs in ends:
                distinct.update((id(prog.map_at(t)), vs[t - 1]) for t in range(1, T + 1))
            orbits[str(c)] = ends
        assert len(calls) == len(distinct) < 2 * len(orbits) * T
        for row in rows:
            a, b = row.pair
            assert _same(row.min_distance, oracles.min_gap(orbits[a], orbits[b]))


@st.composite
def memo_programs(draw):
    """A program in which two maps meet the value c, and a frontier that may hold c.

    The schedule is f, c, g, c, ... (c a constant map), so c goes through f
    at time 5 and through g at time 3; when f(c) != g(c) a memo keyed by the
    value alone answers one of them wrongly.
    """
    f, g = draw(crowded_plmaps()), draw(crowded_plmaps())
    l, r = sorted((draw(rationals01), draw(rationals01)))
    c = draw(st.sampled_from([l, r, (l + r) / 2, draw(rationals01)]))
    return BlockProgram(
        stages=(Stage("s", (f, constant_map(c), g, constant_map(c))),),
        frontier=((l, r),),
    )


class TestStepMemo:
    SHARED_NUMERATOR = [Fraction(1, k) for k in range(1, 7)]

    @given(memo_programs(), st.lists(rationals01, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_shared_memo_matches_reference(self, prog, starts):
        steps: dict = {}
        l, r = prog.frontier[0]
        for x in self.SHARED_NUMERATOR + starts + [l, r] + self.SHARED_NUMERATOR:
            assert trajectory(prog, x, 9, steps) == oracles.trajectory(prog, x, 9)

    def test_two_maps_one_value(self):
        third = Fraction(1, 3)
        up, down = pl_from_points([(0, 0), (1, 1)]), pl_from_points([(0, 1), (1, 0)])
        prog = BlockProgram(
            stages=(Stage("s", (up, constant_map(third), down, constant_map(third))),),
            frontier=((Fraction(1, 4), third),),
        )
        steps: dict = {}
        for x in self.SHARED_NUMERATOR:
            traj = trajectory(prog, x, 9, steps)
            assert traj == oracles.trajectory(prog, x, 9)
            assert traj.values[3] == 2 * third and traj.values[5] == third and traj.tainted

    def test_program_maps(self, main_fixture):
        _, prog = main_fixture
        steps: dict = {}
        for x in self.SHARED_NUMERATOR + self.SHARED_NUMERATOR[::-1]:
            assert trajectory(prog, x, 32, steps) == oracles.trajectory(prog, x, 32)


class TestFrontierTaint:
    @given(crowded_plmaps(), rationals01, rationals01, st.integers(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_at_endpoints(self, f, l, r, k):
        l, r = min(l, r), max(l, r)
        hit = min(max(l + k * TINY, Fraction(0)), Fraction(1))
        prog = BlockProgram(
            stages=(Stage("s", (f, constant_map(hit), f)),),
            frontier=((l, r),),
        )
        for x in _near([l, r]):
            assert trajectory(prog, x, 7) == oracles.trajectory(prog, x, 7)

    def test_program_frontier(self, main_fixture):
        _, prog = main_fixture
        T = prog.stage_length
        for x in _near([v for iv in prog.frontier for v in iv]):
            assert trajectory(prog, x, T) == oracles.trajectory(prog, x, T)
