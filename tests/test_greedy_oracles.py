"""Differential tests: the one greedy pass against the loops it replaced.

``analysis._greedy`` gives each of its cells n one bit and returns, for each
epsilon, the rows some cell keeps as (index, mask) pairs; one pass over the
rows, read once, serves every cell.  It serves both ``greedy_separated``
(every n up to len(A), after sampling every candidate) and
``entropy_estimate`` (every cell of the table).  Each cell is compared with
the count over pre-sampled rows and with the sample-then-test loop kept in
``oracles``, on small rational rows, duplicate rows, rows exactly epsilon
apart (the strict ``>`` must not separate them), on one to four cells given
in any order, repeats included, on every n up to the row length at once, on
up to three epsilons in one pass, and on the first value only as well as on
whole rows.  A kept row blocks a row in every cell up to their separation
index, so the cases include a row blocked in a larger cell by a row the
smaller cell rejected.  The sampler ``analysis._sample`` yields None for a
start whose value at the earliest sampled time repeats an earlier start's;
the greedy skips it, so the cases include None rows, and unsorted and
repeated time lists, where the earliest time is not the first.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ndslab.acceptance import (
    autonomous_program,
    epsilon_zero,
    lemma_K,
    lemma_phi,
    main_candidates,
)
from ndslab.analysis import _greedy, _sample, entropy_estimate, greedy_separated
from ndslab.dynamics import trajectory
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import StageParams, build_main_nds, times_S
from ndslab.plmap import tent_map

F = Fraction


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
    cell = st.sampled_from([1, width]) | st.integers(1, width)
    ns = draw(st.lists(cell, min_size=1, max_size=4))
    return rows, ns, epsilon


def members(kept, n):
    """The indices of ``_greedy``'s kept rows whose mask has the cell n's bit, n - 1."""
    return [i for i, mask in kept if mask >> (n - 1) & 1]


def greedy_cells(rows, ns, epsilons):
    """``_greedy``'s kept indices for each epsilon and each n in ns."""
    return [[members(kept, n) for n in ns] for kept in _greedy(rows, ns, epsilons)]


def _kept_by_count(rows, n, epsilon):
    """Row i is kept exactly when it raises the oracle count of rows[:i + 1]."""
    counts = [oracles.greedy_count(rows[:i], n, epsilon) for i in range(len(rows) + 1)]
    return [i for i in range(len(rows)) if counts[i + 1] > counts[i]]


@settings(max_examples=300, deadline=None)
@given(greedy_inputs())
@example(([], [1], Fraction(1)))
@example(([[Fraction(0)], [Fraction(1)]], [1], Fraction(1)))
@example(([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]], [2], Fraction(1, 2)))
# a copy of a rejected row
@example(([[F(0), F(0)], [F(1, 4), F(0)], [F(1, 4), F(0)], [F(1), F(1)]], [2], F(1, 2)))
# equal on the first n < width values, different after them: skipped
@example(([[F(0), F(0)], [F(3), F(0)], [F(0), F(5)]], [1], F(1)))
@example(([[F(0), F(0)], [F(1, 2), F(0)], [F(1, 2), F(7)], [F(2), F(0)]], [1], F(1)))
# the same first value and a different later one: tested in full
@example(([[F(0), F(0)], [F(0), F(3)], [F(0), F(1, 2)]], [2], F(1)))
@example(([[F(0), F(0)], [F(1), F(1)], [F(1), F(-2)], [F(1), F(1)]], [2], F(1, 2)))
# equal values held by distinct Fraction objects
@example(
    ([[F(1, 3), F(2, 3)], [F(2, 6), F("4/6")], [F(9, 3), F(1)], [F("3"), F(2, 2)]], [2], F(1, 4))
)
# equal to row 0 on its first value only: skipped at n = 1, tested (and kept) at n = 2
@example(([[F(0), F(0)], [F(0), F(3)]], [1, 2], F(1)))
# row 1 is kept at n = 2 only, and blocks row 2 there; at n = 1 row 2 is kept
@example(([[F(0), F(0)], [F(1, 2), F(5)], [F(3, 2), F(5)]], [1, 2], F(1)))
# the cells in descending order, with a repeat
@example(([[F(0), F(0)], [F(1, 2), F(5)], [F(3, 2), F(5)]], [2, 1, 2], F(1)))
@example(([[F(0), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(2), F(9)]], [3, 2, 1], F(1)))
def test_greedy_matches_count_oracle(case):
    rows, ns, epsilon = case
    # one pass serves both epsilons; 2 * epsilon is a multiple of epsilon too
    epsilons = [epsilon, 2 * epsilon]
    by_epsilon = greedy_cells(iter(rows), ns, epsilons)
    assert len(by_epsilon) == len(epsilons)
    for eps, cells in zip(epsilons, by_epsilon):
        assert len(cells) == len(ns)
        for n, kept in zip(ns, cells):
            assert len(kept) == oracles.greedy_count(rows, n, eps)
            assert kept == _kept_by_count(rows, n, eps)


@st.composite
def every_cell_inputs(draw):
    """Rows, with None for a copy of an earlier row as ``_sample`` yields it,
    the full rows, their length, and one to three multiples of one epsilon."""
    width = draw(st.integers(1, 6))
    epsilon = draw(st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8))
    value = st.integers(-4, 4).map(lambda k: k * epsilon) | st.fractions(-2, 2, max_denominator=6)
    pool = draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=8))
    full = [list(r) for r in draw(st.lists(st.sampled_from(pool), max_size=16))]
    rows = [None if row in full[:i] else row for i, row in enumerate(full)]
    epsilons = draw(st.lists(st.integers(1, 3).map(lambda k: k * epsilon), min_size=1, max_size=3))
    return rows, full, width, epsilons


@settings(max_examples=150, deadline=None)
@given(every_cell_inputs())
# row 1 is blocked by row 0 at n = 1 and kept at n = 2; row 2 copies row 0
@example(([[F(0), F(0)], [F(0), F(3)], None], [[F(0), F(0)], [F(0), F(3)], [F(0), F(0)]], 2, [F(1)]))
# row 1 is exactly 1 from row 0 at t = 0: kept only at n = 3 for epsilon 1, never for 2
@example(([[F(0), F(0), F(0)], [F(1), F(0), F(2)], [F(3), F(1), F(0)]],
          [[F(0), F(0), F(0)], [F(1), F(0), F(2)], [F(3), F(1), F(0)]], 3, [F(1), F(2)]))
def test_every_cell_of_one_pass_matches_count_oracle(case):
    # _greedy's use in greedy_separated: every n up to the row length at once
    rows, full, width, epsilons = case
    ns = range(1, width + 1)
    for eps, kept in zip(epsilons, _greedy(iter(rows), ns, epsilons), strict=True):
        assert all(mask for _, mask in kept)
        for n in ns:
            assert len(members(kept, n)) == oracles.greedy_count(full, n, eps)
            assert members(kept, n) == _kept_by_count(full, n, eps)


def test_rows_exactly_epsilon_apart_are_not_separated():
    eps = Fraction(1, 3)
    rows = [[Fraction(0), Fraction(0)], [eps, -eps], [Fraction(0), eps + Fraction(1, 10**9)]]
    assert greedy_cells(rows, [2], [eps]) == [[[0, 2]]]
    assert greedy_cells(rows, [1], [eps]) == [[[0]]]
    assert greedy_cells(rows, [2, 1], [eps, 2 * eps]) == [[[0, 2], [0]], [[0], [0]]]


@pytest.fixture(scope="module")
def tent_rows():
    # x and 1 - x share their row from t = 1 on, so most rows have a copy,
    # which the greedy meets in full here: a shuffle may put it first
    grid = [Fraction(j, 2 ** 6) for j in range(2 ** 6 + 1)]
    program = autonomous_program(tent_map())
    rows = [list(trajectory(program, x, 10).values[1:]) for x in grid]
    assert len({tuple(r) for r in rows}) < len(rows)
    return rows


@pytest.mark.parametrize("seed", range(16))
def test_tent_rows_in_any_order_match_count_oracle(tent_rows, seed):
    rows = list(tent_rows)
    random.Random(seed).shuffle(rows)
    cells, = greedy_cells(rows, [1, 4, 10], [Fraction(1, 6)])
    for n, kept in zip((1, 4, 10), cells, strict=True):
        assert kept == _kept_by_count(rows, n, Fraction(1, 6))


def test_sampler_hashes_one_value_per_start(monkeypatch):
    """A sample hashes each start's value at the earliest time, once; the greedy hashes nothing.

    Hashing whole rows as tuples cost 0.16 s per n = 8 cell of the
    entropy-main benchmark workload, and an index of (numerator, denominator)
    keys mapping to row slices raised its peak_rss_mb by 6% (32.25 to
    34.18 MB), past the benchmark's 5% bound.
    """
    program = autonomous_program(tent_map())
    # x and 1 - x meet at t = 1, and every start comes twice
    xs = [F(j, 16) for j in range(17)] * 2
    times = [3, 1, 2]
    hashed = []
    real_hash = Fraction.__hash__

    def counting_hash(self):
        hashed.append(self)
        return real_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    taints = []
    rows = list(_sample(program, xs, times, taints))
    assert len(hashed) == len(xs) == len(rows) == len(taints)
    hashed.clear()
    cells = greedy_cells(rows, [2, 1, 3], [F(1, 8), F(1, 3)])
    assert hashed == []
    table = entropy_estimate(program, times, [F(1, 8)], [3], xs)
    assert len(hashed) == len(xs)
    monkeypatch.undo()
    # a start's row is None exactly when an earlier start has its value at t = 1
    firsts = [trajectory(program, x, 1).values[1] for x in xs]
    assert [row is None for row in rows] == [v in firsts[:i] for i, v in enumerate(firsts)]
    full = [list(trajectory(program, x, 3).values[t] for t in times) for x in xs]
    for eps, by_n in zip([F(1, 8), F(1, 3)], cells):
        for n, kept in zip([2, 1, 3], by_n):
            assert kept == _kept_by_count(full, n, eps)
    assert table.rows[0][2] == len(cells[0][2])


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


def _cells_match_greedy_separated(program, candidates, A, ns, epsilon):
    table = entropy_estimate(program, A, [epsilon], ns, candidates)
    assert [n for _, n, _, _ in table.rows] == list(ns)
    for _, n, card, _ in table.rows:
        assert card == greedy_separated(program, candidates, A, n, epsilon).cardinality
    return [card for _, _, card, _ in table.rows]


def test_main_table_cells_match_greedy_separated(depth6):
    bundle, program, S = depth6
    cards = _cells_match_greedy_separated(
        program, main_candidates(bundle), S, [8, 1, 3], epsilon_zero(bundle) / 2
    )
    assert len(set(cards)) > 1


def test_lemma_table_cells_match_greedy_separated():
    # criterion 4's inputs
    program = autonomous_program(lemma_phi(1))
    a1, b1 = lemma_K(1)
    cands = [a1 + Fraction(j, 3 ** 7) * (b1 - a1) for j in range(3 ** 7 + 1)]
    times = [1, 2, 3, 4, 5]
    cards = _cells_match_greedy_separated(program, cands, times, times, (b1 - a1) / 10)
    assert all(card >= 3 ** n for n, card in zip(times, cards))


# 1/8 and 3/8 meet at t = 2 but not at t = 1, x and 1 - x meet at t = 1, and
# some starts come twice
TENT_STARTS = [Fraction(j, 32) for j in range(33)] + [F(1, 8), F(3, 8), F(5, 8), F(0)]


@pytest.mark.parametrize("times", [[3, 1, 2], [2, 2, 5], [4, 2, 2, 1], [2, 0, 1]])
@pytest.mark.parametrize("epsilon", [F(1, 8), F(1, 6), F(1, 3)])
def test_unsorted_and_repeated_times_match_oracles(times, epsilon):
    # a start whose row repeats is found at the earliest time, not times[0]
    program = autonomous_program(tent_map())
    ns = list(range(1, len(times) + 1))
    rows = [
        [oracles.trajectory(program, x, max(times)).values[t] for t in times]
        for x in TENT_STARTS
    ]
    table = entropy_estimate(
        dataclasses.replace(program), times, [epsilon, 2 * epsilon], ns, TENT_STARTS
    )
    assert [card for _, _, card, _ in table.rows] == [
        oracles.greedy_count(rows, n, eps) for eps in (epsilon, 2 * epsilon) for n in ns
    ]
    for n in ns:
        rep = greedy_separated(dataclasses.replace(program), TENT_STARTS, times, n, epsilon)
        assert rep.witnesses == oracles.greedy_witnesses(program, TENT_STARTS, times, n, epsilon)
