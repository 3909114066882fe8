"""Differential tests: criterion 7b's candidates against the walk they replaced.

``acceptance.grid_in`` makes each grid point as one ``Fraction`` over the
denominator 2m*b*d, where l = a/b and r - l = c/d; ``oracles.grid_in`` takes
l + (2j+1)/(2m) * (r - l) with three ``Fraction`` operations.
``acceptance.main_candidates`` visits only the 2^(min(4, D) + 1) shallow
codes, at their places in the atlas, and the gaps beside them;
``oracles.main_candidates`` walks every code of the atlas and every pair of
neighbours.  The lists must be equal in order too: criterion 7b's greedy
counts depend on the order of the candidates.  The atlases are drawn as in
``test_atlas_oracles``, at depths 1-9, with explicit examples at depths 1-3,
where every code is shallow, and 5; and once at the battery's depth 12.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ndslab.acceptance import DEFAULT_BASE, DEFAULT_DEPTH, DEFAULT_RHO, grid_in, main_candidates
from ndslab.blowup import build_atlas, build_limit_map
from test_atlas_oracles import bases, rhos

small_ends = st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 6)
wide_ends = st.integers(2 ** 59, 2 ** 61).flatmap(
    lambda den: st.integers(-den, 2 * den).map(lambda num: Fraction(num, den))
)
ends = st.one_of(small_ends, wide_ends)


@settings(max_examples=200, deadline=None)
@given(ends, ends, st.integers(1, 400))
@example(Fraction(1, 3), Fraction(1, 2), 3)  # b = 3 and d = 6 differ
@example(Fraction(1, 4), Fraction(1, 4), 2)  # an empty interval: every point is l
def test_grid_in_matches_fraction_steps(l, r, m):
    got = grid_in(l, r, m)
    assert got == oracles.grid_in(l, r, m)
    assert all(type(x) is Fraction for x in got)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), rhos, bases)
@example(1, Fraction(1, 2), 4)
@example(2, Fraction(2 ** 60 - 1, 2 ** 60 + 3), 9)
@example(3, Fraction(1, 3), 2)
@example(5, Fraction(1, 2), 4)
def test_main_candidates_match_the_code_walk(depth, rho, base):
    bundle = build_limit_map(build_atlas(depth, rho, base))
    assert main_candidates(bundle) == oracles.main_candidates(bundle)


def test_main_candidates_at_the_battery_depth():
    # 32 interval grids (800 + 480 + 480 + 400 + 256 points by depth 0-4)
    # and 47 gap grids of 60
    bundle = build_limit_map(build_atlas(DEFAULT_DEPTH, DEFAULT_RHO, DEFAULT_BASE))
    cands = main_candidates(bundle)
    assert len(cands) == 2416 + 47 * 60 == 5236
    assert cands == oracles.main_candidates(bundle)
