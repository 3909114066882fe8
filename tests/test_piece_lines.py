"""Differential tests: ``eval_pl``'s per-piece integer lines against the oracle.

``eval_pl`` evaluates inside a piece from integers (alpha, beta, gamma) kept
in ``PLMap.lines`` and filled on the piece's first visit.  Each value is
compared with the all-``Fraction`` ``oracles.eval_pl`` on a first (filling)
and a repeated (reading) evaluation, on maps of 2-8 pieces with flat and
steep pieces and on every stage map of the depth-6 main program, at points
on a breakpoint, 2^-70 and 2^-69 from one, 2^-20 from one, and inside each
piece.  A breakpoint and a flat piece return the stored ``ys`` object itself;
the table holds exactly the pieces evaluated inside, and a map with a filled
table still equals and hashes like a fresh copy.
"""

import dataclasses
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import StageParams, build_main_nds
from ndslab.plmap import PLMap, eval_pl, pl_from_points

TINY = Fraction(1, 2 ** 70)
NEAR = Fraction(1, 2 ** 20)

rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=997)


@st.composite
def piece_maps(draw):
    """Maps of 2-8 pieces; a value may repeat (a flat piece), and a breakpoint
    may sit 2^-70 from another with a distant value (a steep piece)."""
    interior = rationals01.filter(lambda v: 0 < v < 1)
    inner = draw(st.lists(interior, min_size=1, max_size=4, unique=True))
    steep = draw(st.lists(st.booleans(), min_size=len(inner), max_size=len(inner)))
    xs = {Fraction(0), Fraction(1), *inner}
    xs |= {b + TINY for b, s in zip(inner[:3], steep) if s and b + TINY < 1}
    xs = sorted(xs)
    values = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3)]), rationals01)
    ys = draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    f = pl_from_points(zip(xs, ys))
    assume(f.piece_count >= 2)  # not all points collinear
    return f


def probes(f: PLMap, xs) -> list[Fraction]:
    """Points on, next to and 2^-70 from the given breakpoints, and each piece's midpoint."""
    out = {Fraction(0), Fraction(1)}
    for b in xs:
        out.update(b + k for k in (-NEAR, -2 * TINY, -TINY, 0, TINY, 2 * TINY, NEAR))
    out.update((a + b) / 2 for a, b in zip(f.xs, f.xs[1:]))
    return sorted(v for v in out if 0 <= v <= 1)


def same(a: Fraction, b: Fraction) -> bool:
    return (a.numerator, a.denominator) == (b.numerator, b.denominator)


def check(f: PLMap, points) -> None:
    interior = set()
    for p in points:
        # a new object: the result must not be the argument passed through
        p = Fraction(p.numerator, p.denominator)
        want = oracles.eval_pl(f, p)
        first = eval_pl(f, p)
        assert same(first, want)
        assert same(eval_pl(f, p), want)
        i = bisect_right(f.xs, p) - 1
        if f.xs[i] == p:
            assert first is f.ys[i]
        else:
            interior.add(i)
            if f.ys[i] == f.ys[i + 1]:
                assert first is f.ys[i]
    assert set(f.lines) == interior


# a flat piece after a steep one, 2^-70 wide
STEEP_THEN_FLAT = pl_from_points(
    [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2) + TINY, 1), (1, 1)]
)


@given(piece_maps(), st.lists(rationals01, max_size=4))
@settings(max_examples=200, deadline=None)
@example(STEEP_THEN_FLAT, [])
def test_lines_match_reference(f, extra):
    assert 2 <= f.piece_count <= 8
    check(f, probes(f, list(f.xs) + extra))


@given(piece_maps(), st.lists(rationals01, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_table_holds_only_visited_pieces(f, points):
    check(f, points)
    assert len(f.lines) <= min(len(points), f.piece_count)


@given(piece_maps())
@settings(max_examples=50, deadline=None)
def test_filled_table_keeps_equality(f):
    g = pl_from_points(zip(f.xs, f.ys))
    check(f, probes(f, f.xs))
    assert f == g and hash(f) == hash(g) and g.lines == {}
    assert [fd.name for fd in dataclasses.fields(PLMap)] == ["xs", "ys"]
    assert "lines" not in repr(f)


@pytest.fixture(scope="module")
def depth6_maps():
    bundle = build_limit_map(build_atlas(6, Fraction(1, 2), 4))
    program = build_main_nds(bundle, StageParams())
    maps = {id(m): m for s in program.stages for m in s.maps}
    return [bundle.f, *maps.values()]


def test_every_depth6_stage_map(depth6_maps):
    for f in depth6_maps:
        check(f, probes(f, f.xs[:: max(1, len(f.xs) // 40)]))
