"""Differential tests: the one greedy pass against the loops it replaced.

``analysis._greedy`` keeps the indices of the rows it selects, and serves
both ``greedy_separated`` (which samples every candidate first) and
``entropy_estimate``.  It is compared with the count over pre-sampled rows
and with the sample-then-test loop kept in ``oracles``, on small rational
rows, duplicate rows, rows exactly epsilon apart (the strict ``>`` must not
separate them), and on the first value only as well as on whole rows.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ndslab.acceptance import epsilon_zero, main_candidates
from ndslab.analysis import _greedy, greedy_separated
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import StageParams, build_main_nds, times_S


@st.composite
def greedy_inputs(draw):
    width = draw(st.integers(1, 5))
    epsilon = draw(st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8))
    value = st.one_of(
        # multiples of epsilon put many pairs exactly epsilon apart
        st.integers(-3, 3).map(lambda k: k * epsilon),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
    )
    row = st.lists(value, min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    rows = [list(r) for r in draw(st.lists(st.sampled_from(pool), max_size=14))]
    n = draw(st.sampled_from([1, width]) | st.integers(1, width))
    return rows, n, epsilon


def _kept_by_count(rows, n, epsilon):
    """Row i is kept exactly when it raises the oracle count of rows[:i + 1]."""
    counts = [oracles.greedy_count(rows[:i], n, epsilon) for i in range(len(rows) + 1)]
    return [i for i in range(len(rows)) if counts[i + 1] > counts[i]]


@settings(max_examples=300, deadline=None)
@given(greedy_inputs())
@example(([], 1, Fraction(1)))
@example(([[Fraction(0)], [Fraction(1)]], 1, Fraction(1)))
@example(([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]], 2, Fraction(1, 2)))
def test_greedy_matches_count_oracle(case):
    rows, n, epsilon = case
    kept = _greedy(rows, n, epsilon)
    assert len(kept) == oracles.greedy_count(rows, n, epsilon)
    assert kept == _kept_by_count(rows, n, epsilon)


def test_rows_exactly_epsilon_apart_are_not_separated():
    eps = Fraction(1, 3)
    rows = [[Fraction(0), Fraction(0)], [eps, -eps], [Fraction(0), eps + Fraction(1, 10**9)]]
    assert _greedy(rows, 2, eps) == [0, 2]
    assert _greedy(rows, 1, eps) == [0]


@pytest.fixture(scope="module")
def depth6():
    bundle = build_limit_map(build_atlas(6, Fraction(1, 2), 4))
    params = StageParams()
    return bundle, build_main_nds(bundle, params), times_S(params, 8)


@pytest.mark.parametrize("n", [3, 8])
def test_main_program_witnesses_match_interleaved_loop(depth6, n):
    bundle, program, S = depth6
    cands = main_candidates(bundle)
    eps = epsilon_zero(bundle) / 2
    rep = greedy_separated(program, cands, S, n, eps)
    assert rep.cardinality > 1
    assert rep.witnesses == oracles.greedy_witnesses(program, cands, S, n, eps)
