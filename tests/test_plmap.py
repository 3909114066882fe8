"""Exact piecewise-linear algebra: evaluation, composition, metrics, laps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import constant_map
from ndslab.plmap import (
    PLMap,
    compose,
    compose_chain,
    eval_pl,
    graph_samples,
    identity_map,
    interval_image,
    is_surjective,
    lap_count,
    pl_from_points,
    sup_distance,
    tent_map,
)


@st.composite
def plmaps(draw, max_breaks=5):
    k = draw(st.integers(min_value=0, max_value=max_breaks))
    inner = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    xs = sorted({Fraction(0), Fraction(1)} | {Fraction(v) for v in inner if 0 < v < 1})
    ys = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            min_size=len(xs),
            max_size=len(xs),
        )
    )
    return pl_from_points(zip(xs, [Fraction(y) for y in ys]))


rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=997)


class TestEval:
    def test_identity(self):
        assert eval_pl(identity_map(), Fraction(7, 13)) == Fraction(7, 13)

    def test_tent_peak(self):
        assert eval_pl(tent_map(), Fraction(1, 2)) == 1

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_pl(tent_map(), Fraction(3, 2))

    def test_breakpoint_returns_stored_value(self):
        f = pl_from_points([(0, 0), (Fraction(1, 3), Fraction(1, 2)), (1, 1)])
        assert eval_pl(f, Fraction(1, 3)) == Fraction(1, 2)


class TestCompose:
    def test_identity_left(self):
        g = tent_map()
        assert compose(identity_map(), g) == g

    def test_tent_squared(self):
        tt = compose(tent_map(), tent_map())
        assert tt.xs == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
        assert tt.ys == (0, 1, 0, 1, 0)
        for i in range(65):
            x = Fraction(i, 64)
            assert eval_pl(tt, x) == eval_pl(tent_map(), eval_pl(tent_map(), x))

    @given(plmaps(), plmaps(), rationals01)
    @settings(max_examples=60, deadline=None)
    def test_pointwise_identity(self, f, g, x):
        assert eval_pl(compose(f, g), x) == eval_pl(f, eval_pl(g, x))

    @given(plmaps(3), plmaps(3), plmaps(3))
    @settings(max_examples=25, deadline=None)
    def test_associativity_on_grid(self, f, g, h):
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        for i in range(0, 257, 8):
            x = Fraction(i, 256)
            assert eval_pl(lhs, x) == eval_pl(rhs, x)

    @given(plmaps(), plmaps())
    @settings(max_examples=60, deadline=None)
    def test_lap_submultiplicative(self, f, g):
        assert lap_count(compose(f, g)) <= lap_count(f) * lap_count(g)


def test_compose_pointwise_thousand_points():
    import random

    rng = random.Random(2024)
    f = pl_from_points([(0, 0), (Fraction(1, 3), 1), (Fraction(2, 3), Fraction(1, 4)), (1, 1)])
    g = compose(tent_map(), tent_map())
    fg = compose(f, g)
    for _ in range(1000):
        x = Fraction(rng.randrange(0, 10**6), 10**6)
        assert eval_pl(fg, x) == eval_pl(f, eval_pl(g, x))


class TestSupDistance:
    def test_self_distance(self):
        assert sup_distance(tent_map(), tent_map()) == 0

    def test_identity_vs_tent(self):
        # |x - (1 - |1 - 2x|)| is largest at x = 1
        assert sup_distance(identity_map(), tent_map()) == 1

    @given(plmaps(), plmaps())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, f, g):
        assert sup_distance(f, g) == sup_distance(g, f)

    @given(plmaps(3), plmaps(3), plmaps(3))
    @settings(max_examples=40, deadline=None)
    def test_triangle(self, f, g, h):
        assert sup_distance(f, h) <= sup_distance(f, g) + sup_distance(g, h)

    @given(plmaps(), plmaps())
    @settings(max_examples=60, deadline=None)
    def test_dominates_grid(self, f, g):
        d = sup_distance(f, g)
        for i in range(0, 129, 4):
            x = Fraction(i, 128)
            assert abs(eval_pl(f, x) - eval_pl(g, x)) <= d


class TestLaps:
    def test_identity(self):
        assert lap_count(identity_map()) == 1

    def test_tent(self):
        assert lap_count(tent_map()) == 2

    def test_constant(self):
        assert lap_count(constant_map(Fraction(1, 2))) == 1

    def test_constant_run_merges_left(self):
        f = pl_from_points(
            [(0, 0), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)), (1, 0)]
        )
        assert lap_count(f) == 2

    def test_leading_constant_counts_once(self):
        f = pl_from_points([(0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)), (1, 1)])
        assert lap_count(f) == 1


class TestSurjectivity:
    def test_examples(self):
        assert is_surjective(identity_map())
        assert is_surjective(tent_map())
        assert not is_surjective(constant_map(Fraction(1, 2)))


class TestIntervalImage:
    def test_monotone_piece(self):
        assert interval_image(identity_map(), Fraction(1, 4), Fraction(3, 4)) == (
            Fraction(1, 4),
            Fraction(3, 4),
        )

    def test_over_peak(self):
        assert interval_image(tent_map(), Fraction(1, 4), Fraction(3, 4)) == (
            Fraction(1, 2),
            Fraction(1),
        )

    @given(plmaps(), rationals01, rationals01)
    @settings(max_examples=60, deadline=None)
    def test_contains_samples(self, f, a, b):
        lo, hi = min(a, b), max(a, b)
        img = interval_image(f, lo, hi)
        for t in range(5):
            x = lo + (hi - lo) * Fraction(t, 4)
            assert img[0] <= eval_pl(f, x) <= img[1]


def test_json_roundtrip():
    f = compose(tent_map(), tent_map())
    assert PLMap.from_json_dict(f.to_json_dict()) == f


def test_graph_samples_grid():
    pts = graph_samples(tent_map(), 8)
    assert pts[0] == (0, 0) and pts[4] == (Fraction(1, 2), 1) and pts[-1] == (1, 0)
