"""Differential tests: the integer atlas set-up against its ``Fraction`` oracles.

``build_atlas`` lays the intervals out over one common denominator,
``build_limit_map`` finds each image by adding 1 to the position read
backwards, and ``build_lambda`` finds each partner by flipping the low bits
of the position.  Each is compared here with the ``Fraction`` and ``Code``
version in ``oracles`` over rho drawn with small and ~60-bit denominators,
weight bases 2-9 and depths 1-9; the position identities themselves are
checked on every code at small depths.  The atlas keeps no codes
(``symbolic.code_at`` builds one from its position, checked against the
sorted listing in ``oracles``).  At each hull interval end the plain and
fold steps of a stage take the image of the end's tau partner, found
through ``oracles.tau_partner`` and ``oracles.limit_images``, and hold the
bundle's own object for it, which they find by value among the interval
ends of the successor block's cylinder.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import (
    StageParams,
    StageSpec,
    _fold_unit,
    build_lambda,
    build_phi_stage,
)
from ndslab.plmap import compose, eval_pl
from ndslab.symbolic import Block, Code, alpha, code_at, int_to_word, position, tau

small_rhos = st.fractions(min_value=0, max_value=1, max_denominator=100).filter(lambda r: 0 < r < 1)
wide_rhos = st.integers(2 ** 59, 2 ** 61).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))
)
rhos = st.one_of(small_rhos, wide_rhos)
bases = st.integers(2, 9)


def _rev(i: int, width: int) -> int:
    return int(format(i, f"0{width}b")[::-1], 2)


def _words(depth: int):
    return (int_to_word(k, n) for n in range(depth + 1) for k in range(2 ** n))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), rhos, bases)
@example(9, Fraction(2 ** 60 - 1, 2 ** 60 + 3), 9)
@example(9, Fraction(1, 2), 2)
def test_layout_matches_fraction_sums(depth, rho, base):
    atlas = build_atlas(depth, rho, base)
    intervals, w = oracles.layout(depth, rho, base)
    assert list(atlas.intervals) == intervals
    assert atlas.total_weight == w


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), rhos, bases)
@example(9, Fraction(2 ** 60 - 1, 2 ** 60 + 3), 9)
def test_limit_map_matches_alpha_images(depth, rho, base):
    bundle = build_limit_map(build_atlas(depth, rho, base))
    assert list(zip(bundle.f.xs, bundle.f.ys)) == oracles.pl_points(oracles.limit_points(bundle))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), rhos, bases, st.data())
def test_lambda_matches_tau_partners(depth, rho, base, data):
    bundle = build_limit_map(build_atlas(depth, rho, base))
    atlas = bundle.atlas
    n = data.draw(st.integers(1, depth))
    word = int_to_word(data.draw(st.integers(0, 2 ** n - 1)), n)
    lam = build_lambda(bundle, Block(word))
    for c in oracles.cylinder_codes(atlas, word):
        (l, r), (l2, r2) = atlas.interval_of(c), oracles.tau_partner(atlas, word, c)
        assert (eval_pl(lam, l), eval_pl(lam, r)) == (l2, r2)


@pytest.mark.parametrize("depth", range(1, 11))
def test_alpha_adds_one_to_the_reversed_position(depth):
    atlas = build_atlas(depth, Fraction(1, 2), 4)
    width = depth + 1
    frontier = Code(2 ** depth - 1)
    for i, c in enumerate(atlas.codes):
        assert _rev(i, width) == c.index % 2 ** width
        if c != frontier:
            assert position(alpha(c), depth) == _rev((_rev(i, width) + 1) % 2 ** width, width)
    assert position(frontier, depth) == 2 ** width - 2


@pytest.mark.parametrize("depth", range(1, 9))
def test_tau_flips_the_low_bits_of_the_position(depth):
    atlas = build_atlas(depth, Fraction(1, 2), 4)
    codes = atlas.codes
    for word in _words(depth):
        if not word:
            continue
        flip = 2 ** (depth + 1 - len(word)) - 1
        for i in atlas.cylinder(word):
            assert position(tau(Block(word), codes[i]), depth) == i ^ flip


@pytest.mark.parametrize("depth", range(1, 9))
def test_cylinder_matches_canonical_run(depth):
    atlas = build_atlas(depth, Fraction(1, 2), 4)
    for word in _words(depth):
        assert atlas.cylinder(word) == oracles.cylinder_run(atlas, word)


@pytest.mark.parametrize("depth", range(1, 9))
def test_interval_at_index_matches_code_lookup(depth):
    atlas = build_atlas(depth, Fraction(1, 2), 4)
    half = 2 ** depth
    places = {c: i for i, c in enumerate(oracles.all_codes(depth))}
    for j in range(-half, half):
        assert atlas.interval_of(Code(j)) == atlas.intervals[places[Code(j)]]
    # G at orbit index j is G(Code(j)); -2^D is 0^D 1-bar at position 1 and
    # 2^D - 1 the frontier code 1^D 0-bar
    assert atlas.interval_of(Code(-half)) == atlas.intervals[1]
    assert atlas.interval_of(Code(half - 1)) == atlas.intervals[-2]
    for j in (half, -half - 1):
        with pytest.raises(KeyError):
            atlas.interval_of(Code(j))


def test_cylinder_rejects_non_binary_words():
    atlas = build_atlas(4, Fraction(1, 2), 4)
    for word in ("1_0", "12", " 1"):
        with pytest.raises(ValueError):
            atlas.cylinder(word)


@pytest.mark.parametrize("depth", range(1, 9))
def test_code_at_matches_all_codes(depth):
    atlas = build_atlas(depth, Fraction(1, 2), 4)
    codes = oracles.all_codes(depth)
    assert [code_at(i, depth) for i in range(atlas.size)] == codes == list(atlas.codes)


@pytest.mark.parametrize("word", ["0", "1", "011", "111"])
def test_stage_maps_hold_the_atlas_ends(word):
    # the fold and plain steps keep the bundle's own objects as their values
    # at the hull's interval ends, not equal copies
    bundle = build_limit_map(build_atlas(8, Fraction(1, 2), 4))
    params = StageParams((StageSpec(Block(word), 1),))
    elem, eta = _fold_unit(bundle, params, 1, 1)[:2]
    held = {id(v) for iv in (*bundle.atlas.intervals, bundle.frontier_image) for v in iv}
    ends = {id(v) for i in bundle.atlas.cylinder(word) for v in bundle.atlas.intervals[i]}
    for m in (elem, eta):
        at_ends = [y for x, y in zip(m.xs, m.ys) if id(x) in ends]
        assert len(at_ends) > 2 ** (8 - len(word)) and all(id(y) in held for y in at_ends)


# a depth and a block of any length up to it, 1^k drawn often: its cylinder
# holds the partner of the frontier code, whose image lies in a gap (1^D
# itself visits the frontier code, which no stage may)
stage_cases = st.integers(3, 8).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.integers(1, d).flatmap(
            lambda k: st.one_of(
                st.just("1" * k), st.integers(0, 2 ** k - 1).map(lambda m: int_to_word(m, k))
            )
        ).filter(lambda w: w != "1" * d),
    )
)


@settings(max_examples=40, deadline=None)
@given(stage_cases, rhos, bases, st.integers(1, 3))
@example((8, "111"), Fraction(1, 2), 4, 1)
@example((5, "0110"), Fraction(2 ** 60 - 1, 2 ** 60 + 3), 9, 3)
# eta takes the value 19/24, which is no interval end but shares its
# numerator with the end 19/23 of the successor block's cylinder
@example((3, "0"), Fraction(1, 2), 4, 1)
def test_stage_maps_take_the_partner_images_at_the_hull_ends(case, rho, base, n):
    # at each hull interval end x of G(c), both steps equal f_D(lambda(x)),
    # an end of the image of G(tau(c)); where x is a breakpoint the map holds
    # the bundle's own object, and holding those objects changes no value
    depth, word = case
    bundle = build_limit_map(build_atlas(depth, rho, base))
    atlas = bundle.atlas
    params = StageParams((StageSpec(Block(word), 1),))
    elem, eta = _fold_unit(bundle, params, 1, n)[:2]
    lam = build_lambda(bundle, Block(word))
    assert eta == compose(bundle.f, lam)
    assert elem == compose(build_phi_stage(bundle, params, 1, n), lam)
    images = oracles.limit_images(bundle)
    image_of = {atlas.interval_of(c): images[c] for c in atlas.codes}
    for m in (elem, eta):
        held = dict(zip(m.xs, m.ys))
        for c in oracles.cylinder_codes(atlas, word):
            ends = image_of[oracles.tau_partner(atlas, word, c)]
            for x, want in zip(atlas.interval_of(c), ends):
                assert eval_pl(m, x) == want
                assert x not in held or held[x] is want
