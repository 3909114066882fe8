"""Differential tests: the integer map-construction kernels against their oracles.

``pl_from_points`` tests collinearity by integer cross-multiplication,
``PLMap`` validates by comparing numerators and denominators, ``compose``
emits its cuts in x-order from one float-located search per breakpoint of
the inner map, ``interval_image`` slices the values between two such
searches, and ``sup_distance`` merges two sorted breakpoint tuples.  Each is
compared here with the all-``Fraction`` version in ``oracles`` (and the
splice of the construction moves, which builds its map from an already
sorted list, with ``pl_from_points`` of the same points) on inputs
that a friendly strategy misses: coordinates 2^-70 apart, ~200-bit
denominators, exactly collinear triples and triples 2^-70 off, duplicate
points that agree or conflict, constant and falling pieces, value ranges
ending exactly on a breakpoint or 2^-70 from one, and values 2^-70 outside
[0,1].
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ndslab import plmap
from ndslab.constructions import _splice
from ndslab.plmap import (
    PLMap, compose, eval_pl, interval_image, pl_from_points, sup_distance, tent_map,
)
from test_float_filters import crowded_plmaps

TINY = Fraction(1, 2 ** 70)

small = st.fractions(min_value=0, max_value=1, max_denominator=97)


@st.composite
def wide(draw):
    """A value in [0,1] with a denominator of about 200 bits."""
    d = draw(st.integers(min_value=2 ** 199, max_value=2 ** 200))
    return Fraction(draw(st.integers(min_value=0, max_value=d)), d)


@st.composite
def near(draw):
    """A small rational moved by up to two steps of 2^-70, kept in [0,1]."""
    v = draw(small) + draw(st.integers(min_value=-2, max_value=2)) * TINY
    return min(max(v, Fraction(0)), Fraction(1))


coords = st.one_of(small, wide(), near())
coords_or_outside = st.one_of(coords, st.sampled_from([-TINY, 1 + TINY]))


@st.composite
def point_lists(draw):
    """Raw (x, y) points, mostly a valid map's, with collinear and repeated points."""
    xs = draw(st.lists(coords, max_size=6))
    if draw(st.booleans()):
        xs += [Fraction(0), Fraction(1)]
    pts = [(x, draw(coords)) for x in xs]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if len(pts) < 2:
            break
        (x0, y0), (x2, y2) = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        t = draw(st.one_of(small, wide()))
        off = draw(st.sampled_from([0, 0, TINY, -TINY]))
        pts.append((x0 + t * (x2 - x0), y0 + t * (y2 - y0) + off))
    if pts and draw(st.booleans()):
        x, y = draw(st.sampled_from(pts))
        pts.append((x, y if draw(st.booleans()) else draw(coords)))
    if pts and draw(st.integers(min_value=0, max_value=5)) == 0:
        x, _ = draw(st.sampled_from(pts))
        pts.append((x, draw(st.sampled_from([-TINY, 1 + TINY]))))
    return draw(st.permutations(pts))


@st.composite
def hard_plmaps(draw, values=coords):
    xs = sorted({Fraction(0), Fraction(1)} | set(draw(st.lists(coords, max_size=5))))
    ys = [draw(values)]
    for _ in xs[1:]:
        # a repeated value makes a constant piece
        ys.append(ys[-1] if draw(st.integers(min_value=0, max_value=3)) == 0 else draw(values))
    return pl_from_points(zip(xs, ys))


@st.composite
def map_pairs(draw):
    """(f, g) where some values of g, so some ends of its pieces' ranges, are breakpoints of f."""
    f = draw(hard_plmaps())
    g = draw(hard_plmaps(st.one_of(coords, st.sampled_from(f.xs))))
    return f, g


def on_or_beside(xs):
    """One of the points xs, or one 2^-70 either side of it, kept in [0,1]."""
    return st.builds(
        lambda b, k: min(max(b + k * TINY, Fraction(0)), Fraction(1)),
        st.sampled_from(xs),
        st.integers(min_value=-1, max_value=1),
    )


@st.composite
def crowded_pairs(draw):
    """(f, g): f has breakpoints 2^-70 apart; g's values sit on or 2^-70 from them."""
    f = draw(crowded_plmaps())
    return f, draw(hard_plmaps(st.one_of(on_or_beside(f.xs), small)))


@st.composite
def flat_and_falling_pairs(draw):
    """(f, g): g's values are all on or 2^-70 from f's breakpoints, repeated
    so that flat pieces lie on a breakpoint, and often sorted so that every
    other piece falls."""
    f = draw(st.one_of(crowded_plmaps(), hard_plmaps()))
    values = draw(st.lists(on_or_beside(f.xs), min_size=1, max_size=5))
    xs = sorted({Fraction(0), Fraction(1)} | set(draw(st.lists(coords, max_size=5))))
    ys = [draw(st.sampled_from(values)) for _ in xs]
    if draw(st.booleans()):
        ys.sort(reverse=True)
    return f, pl_from_points(zip(xs, ys))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def _exact(v):
    """A map's or a point list's points as exact strings, or an outcome's error."""
    if isinstance(v, PLMap):
        v = list(zip(v.xs, v.ys))
    return v if isinstance(v, tuple) else [(str(x), str(y)) for x, y in v]


def _check(xs, ys) -> None:
    PLMap(tuple(xs), tuple(ys))


class TestPlFromPoints:
    @given(point_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, pts):
        got = _exact(_outcome(pl_from_points, pts))
        assert got == _exact(_outcome(oracles.pl_points, pts))

    @pytest.mark.parametrize("off", [0, TINY, -TINY])
    def test_collinear_triple_with_wide_denominators(self, off):
        d0, d1 = 2 ** 200 - 3, 2 ** 199 + 7
        p0, p2 = (Fraction(1, d0), Fraction(5, d1)), (1 - Fraction(3, d1), 1 - Fraction(1, d0))
        t = Fraction(2 ** 150 + 1, 2 ** 201 - 1)
        p1 = (p0[0] + t * (p2[0] - p0[0]), p0[1] + t * (p2[1] - p0[1]) + off)
        pts = [(0, 0), p0, p1, p2, (1, 1)]
        got = pl_from_points(pts)
        assert _exact(got) == _exact(oracles.pl_points(pts))
        assert (p1[0] in got.xs) == (off != 0)

    def test_conflicting_duplicate_raises_the_same_error(self):
        third, half = Fraction(1, 3), Fraction(1, 2)
        pts = [(0, 0), (third, half), (third, half + TINY), (1, 1)]
        got = _outcome(pl_from_points, pts)
        assert got[0] == "ValueError" and got == _outcome(oracles.pl_points, pts)


class TestPLMapChecks:
    @given(st.lists(coords_or_outside, max_size=6), st.lists(coords_or_outside, max_size=6),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, xs, ys, frame):
        if frame:
            xs = [Fraction(0)] + xs + [Fraction(1)]
            ys = (ys + [Fraction(0)] * len(xs))[: len(xs)]
        assert _outcome(_check, xs, ys) == _outcome(oracles.plmap_check, xs, ys)

    @pytest.mark.parametrize("y", [-TINY, 1 + TINY])
    def test_rejects_values_just_outside(self, y):
        with pytest.raises(ValueError, match="values must lie"):
            PLMap((Fraction(0), Fraction(1)), (Fraction(1, 2), y))

    @pytest.mark.parametrize("second", [Fraction(1, 3), Fraction(1, 3) - TINY])
    def test_rejects_breakpoints_that_do_not_increase(self, second):
        with pytest.raises(ValueError, match="increase strictly"):
            PLMap((Fraction(0), Fraction(1, 3), second, Fraction(1)), (Fraction(0),) * 4)


class TestCompose:
    @staticmethod
    def _check(f, g):
        with mock.patch.object(plmap, "_canonical_map", wraps=plmap._canonical_map) as spy:
            got = compose(f, g)
        assert _exact(got) == _exact(oracles.compose(f, g))
        # the cuts reach the canonical pass sorted, without repeats
        cuts = [x for x, _ in spy.call_args.args[0]]
        assert all(a < b for a, b in zip(cuts, cuts[1:]))

    @given(map_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, fg):
        self._check(*fg)

    @given(crowded_pairs())
    @settings(max_examples=150, deadline=None)
    def test_values_on_crowded_breakpoints(self, fg):
        self._check(*fg)

    @given(flat_and_falling_pairs())
    @settings(max_examples=150, deadline=None)
    def test_flat_and_falling_pieces_on_breakpoints(self, fg):
        self._check(*fg)

    def test_value_sharing_a_numerator_with_a_breakpoint(self):
        # g falls from 1/4 to 0 across f's breakpoint 1/5, which must be cut
        f = pl_from_points([(0, 0), (Fraction(1, 5), 1), (1, 0)])
        g = pl_from_points([(0, Fraction(1, 4)), (1, 0)])
        self._check(f, g)
        assert Fraction(1, 5) in compose(f, g).xs

    def test_range_ending_on_a_breakpoint_is_not_cut(self):
        # g's first piece rises onto 1/2, the tent's peak; its second falls from it
        g = pl_from_points([(0, 0), (Fraction(1, 3), Fraction(1, 2)), (1, Fraction(1, 4))])
        with mock.patch.object(plmap, "_canonical_map", wraps=plmap._canonical_map) as spy:
            got = compose(tent_map(), g)
        assert [x for x, _ in spy.call_args.args[0]] == [0, Fraction(1, 3), 1]
        assert _exact(got) == _exact(oracles.compose(tent_map(), g))

    def test_falling_piece_cuts_in_x_order(self):
        f = pl_from_points([(Fraction(i, 4), i % 2) for i in range(5)])
        g = pl_from_points([(0, 1), (1, 0)])
        with mock.patch.object(plmap, "_canonical_map", wraps=plmap._canonical_map) as spy:
            got = compose(f, g)
        assert [x for x, _ in spy.call_args.args[0]] == [Fraction(i, 4) for i in range(5)]
        assert _exact(got) == _exact(oracles.compose(f, g))


@st.composite
def image_cases(draw):
    """(f, lo, hi) with lo == hi or either end on or 2^-70 from a breakpoint."""
    f = draw(st.one_of(crowded_plmaps(), hard_plmaps()))
    ends = st.one_of(on_or_beside(f.xs), small)
    lo = draw(ends)
    hi = lo if draw(st.integers(min_value=0, max_value=4)) == 0 else draw(ends)
    return f, min(lo, hi), max(lo, hi)


class TestIntervalImage:
    @given(image_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        got = interval_image(*case)
        assert _exact(got) == _exact(oracles.interval_image(*case))

    def test_ends_2_to_the_minus_70_inside_a_crowd(self):
        third = Fraction(1, 3)
        f = pl_from_points([(0, 0), (third, Fraction(1, 2)), (third + 2 * TINY, 1), (1, 0)])
        for lo, hi in [(third + TINY, third + TINY), (third + TINY, third + 2 * TINY),
                       (third - TINY, third + TINY), (third, third + TINY)]:
            assert interval_image(f, lo, hi) == oracles.interval_image(f, lo, hi)


class TestSupDistance:
    @given(map_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, fg):
        f, g = fg
        assert sup_distance(f, g) == oracles.sup_distance(f, g)
        assert sup_distance(g, f) == oracles.sup_distance(g, f)

    def test_shared_breakpoints_2_to_the_minus_70_apart(self):
        f = pl_from_points([(0, 0), (Fraction(1, 3), 1), (1, 0)])
        g = pl_from_points([(0, 0), (Fraction(1, 3), 1), (Fraction(1, 3) + TINY, 0), (1, 0)])
        assert sup_distance(f, g) == oracles.sup_distance(f, g) > 0


@st.composite
def splices(draw):
    """(base, points): points on, 2^-70 beside, between and beyond base's
    breakpoints, in any order, often with a repeated point, span ends on
    base's graph (so a seam may be collinear with base) or a span of [0,1]."""
    base = draw(st.one_of(hard_plmaps(), crowded_plmaps()))
    xs = st.one_of(on_or_beside(base.xs), coords)
    pts = [(x, draw(coords)) for x in draw(st.lists(xs, min_size=1, max_size=5))]
    if draw(st.booleans()):
        ends = (min(pts)[0], max(pts)[0])
        pts = [(x, eval_pl(base, x) if x in ends else y) for x, y in pts]
    if draw(st.booleans()):
        pts += [(Fraction(0), draw(coords)), (Fraction(1), draw(coords))]
    if draw(st.booleans()):
        pts.append(draw(st.sampled_from(pts)))
    return base, draw(st.permutations(pts))


class TestSplice:
    @given(splices())
    @settings(max_examples=200, deadline=None)
    def test_matches_pl_from_points(self, case):
        base, pts = case
        lo, hi = min(x for x, _ in pts), max(x for x, _ in pts)
        outside = [(x, y) for x, y in zip(base.xs, base.ys) if not lo <= x <= hi]
        got = _outcome(_splice, base, list(pts))
        assert _exact(got) == _exact(_outcome(pl_from_points, outside + pts))
