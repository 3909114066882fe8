"""Atlas layout and limit-map structure at small and moderate depths."""

from fractions import Fraction

import pytest

import oracles
from ndslab.blowup import (
    build_atlas,
    build_limit_map,
    one_code_per_deep_cylinder,
    order_isomorphism_holds,
    verify_hull_periodicity,
    verify_orbit_action,
)
from ndslab.plmap import interval_image, is_surjective
from ndslab.symbolic import (
    ZERO,
    ONE,
    all_codes,
    alpha,
    canonicalize,
    int_to_word,
    position,
    theta,
)


@pytest.fixture(scope="module")
def atlas8():
    return build_atlas(8, Fraction(1, 2), 4)


@pytest.fixture(scope="module")
def bundle8(atlas8):
    return build_limit_map(atlas8)


class TestAtlasLayout:
    def test_depth_one_order(self):
        a = build_atlas(1, Fraction(1, 2), 4)
        assert [str(c) for c in a.codes] == ["|0", "0|1", "1|0", "|1"]
        assert [theta(c) for c in a.codes] == [0, Fraction(1, 3), Fraction(2, 3), 1]

    def test_tiles_unit_interval(self, atlas8):
        total = sum(r - l for l, r in atlas8.intervals)
        gaps = sum(
            b[0] - a[1] for a, b in zip(atlas8.intervals, atlas8.intervals[1:])
        )
        assert total == atlas8.rho
        assert total + gaps == 1
        assert atlas8.intervals[0][0] == 0 and atlas8.intervals[-1][1] == 1

    def test_entry_count(self, atlas8):
        assert atlas8.size == 2 ** 9

    def test_mass_formula_depth_12(self):
        a = build_atlas(12, Fraction(1, 2), 4)
        w = 3 - Fraction(1, 2 ** 12)
        assert a.total_weight == w
        l, r = a.interval_of(ZERO)
        assert r - l == Fraction(1, 2) / w

    def test_gap_formula(self, atlas8):
        for (c1, iv1), (c2, iv2) in list(
            zip(zip(atlas8.codes, atlas8.intervals), zip(atlas8.codes[1:], atlas8.intervals[1:]))
        )[:64]:
            assert iv2[0] - iv1[1] == (1 - atlas8.rho) * (theta(c2) - theta(c1))

    def test_order_isomorphism(self, atlas8):
        assert order_isomorphism_holds(atlas8)

    def test_deep_cylinder_bijection(self, atlas8):
        assert one_code_per_deep_cylinder(atlas8)

    def test_locate(self, atlas8):
        assert atlas8.interval_of(ZERO) == atlas8.intervals[0]
        assert atlas8.interval_of(ONE) == atlas8.intervals[-1]
        deep = canonicalize("0" * 9 + "1", 0)
        with pytest.raises(KeyError):
            position(deep, 8)
        with pytest.raises(KeyError):
            atlas8.interval_of(deep)

    @pytest.mark.parametrize("depth", [1, 2, 5, 12])
    def test_shallow_codes_are_all_codes(self, depth):
        # the scans list their shallow codes with all_codes(m): the same codes
        # in the same order as the atlas's, so their random draws are unchanged
        codes = build_atlas(depth, Fraction(1, 2), 4).codes
        for m in range(depth + 1):
            assert [c for c in codes if c.depth <= m] == all_codes(m)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_atlas(0, Fraction(1, 2), 4)
        with pytest.raises(ValueError):
            build_atlas(3, Fraction(0), 4)
        with pytest.raises(ValueError):
            build_atlas(3, Fraction(3, 2), 4)
        with pytest.raises(ValueError):
            build_atlas(3, Fraction(1, 2), 1)


class TestLimitMap:
    def test_surjective(self, bundle8):
        assert is_surjective(bundle8.f)

    def test_interval_action(self, bundle8):
        atlas = bundle8.atlas
        for c, iv in zip(atlas.codes, atlas.intervals):
            if c == bundle8.frontier_code:
                continue
            assert interval_image(bundle8.f, *iv) == atlas.interval_of(alpha(c))

    def test_wraparound(self, bundle8):
        g1 = bundle8.atlas.interval_of(ONE)
        assert interval_image(bundle8.f, *g1) == bundle8.atlas.interval_of(ZERO)

    def test_frontier_is_single_all_ones_block(self, bundle8):
        assert bundle8.frontier_code == canonicalize("1" * 8, 0)
        assert bundle8.frontier_intervals() == [
            bundle8.atlas.interval_of(bundle8.frontier_code),
            bundle8.frontier_image,
        ]
        lo, hi = bundle8.frontier_image
        gap_lo = bundle8.atlas.intervals[0][1]
        gap_hi = bundle8.atlas.intervals[1][0]
        assert gap_lo < lo < hi < gap_hi

    def test_orbit_action_full_horizon(self, bundle8):
        assert verify_orbit_action(bundle8, bundle8.exact_horizon) is None

    def test_orbit_action_horizon_guard(self, bundle8):
        with pytest.raises(ValueError):
            verify_orbit_action(bundle8, bundle8.exact_horizon + 1)

    def test_orbit_action_examples(self, bundle8):
        cur = bundle8.atlas.interval_of(ZERO)
        expected = [canonicalize("1", 0), canonicalize("01", 0), canonicalize("11", 0)]
        for code in expected:
            cur = interval_image(bundle8.f, *cur)
            assert cur == bundle8.atlas.interval_of(code)


class TestHulls:
    def test_periodicity_all_levels(self, bundle8):
        for n in range(1, 9):
            assert verify_hull_periodicity(bundle8, n) is None

    def test_nesting(self, atlas8):
        for n in range(1, 8):
            for k in range(2 ** n):
                outer = atlas8.hull(n, k)
                for bit in (0, 1):
                    inner = atlas8.hull(n + 1, k + bit * 2 ** n)
                    assert outer[0] <= inner[0] and inner[1] <= outer[1]

    def test_hull_interiors_positive(self, atlas8):
        # the blown mass inside every hull is positive
        for n in (1, 4, 8):
            for iv in atlas8.hulls_at_level(n):
                assert iv[1] > iv[0]

    def test_min_gap_positive(self, atlas8):
        for n in (1, 4, 8):
            assert atlas8.min_hull_gap(n) > 0

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_hulls_match_prefix_grouping(self, depth):
        atlas = build_atlas(depth, Fraction(1, 2), 4)
        table = oracles.hull_table(atlas)
        assert {(n, k): atlas.hull(n, k) for n, k in table} == table
        assert len(table) == 2 ** (depth + 1) - 2
        for n in range(1, depth + 1):
            assert atlas.hulls_at_level(n) == sorted(v for (m, _), v in table.items() if m == n)

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_cylinders_match_prefix_scan(self, depth):
        atlas = build_atlas(depth, Fraction(1, 2), 4)
        codes = atlas.codes
        for n in range(depth + 1):
            for k in range(2 ** n):
                word = int_to_word(k, n)
                run = atlas.cylinder(word)
                assert [codes[i] for i in run] == oracles.cylinder_codes(atlas, word)

    def test_cylinder_rejects_words_beyond_depth(self, atlas8):
        # a depth-9 word's cylinder holds one represented code, but not as a run
        # from w0-bar to w1-bar
        for word in ("0" * 9, "1" * 9, "0" * 8 + "1", "1" * 10):
            with pytest.raises(ValueError):
                atlas8.cylinder(word)
        with pytest.raises(ValueError):
            atlas8.hull(9, 0)


def test_rel_coordinates_roundtrip(bundle8):
    c = canonicalize("01", 0)
    x = bundle8.point_at(c, Fraction(3, 7))
    code, rel = bundle8.rel_of(x)
    assert code == c and rel == Fraction(3, 7)
    gap_lo = bundle8.atlas.intervals[0][1]
    gap_hi = bundle8.atlas.intervals[1][0]
    assert bundle8.rel_of((gap_lo + gap_hi) / 2) is None
