"""Differential tests: the one greedy pass against the loops it replaced.

``analysis._greedy`` keeps, for each of its cells n, the indices of the rows
a greedy pass over their first n values selects; one pass over the rows
serves every cell.  It serves both ``greedy_separated`` (one cell, after
sampling every candidate) and ``entropy_estimate`` (every n of the table for
one epsilon).  Each cell is compared with the count over pre-sampled rows and
with the sample-then-test loop kept in ``oracles``, on small rational rows,
duplicate rows, rows exactly epsilon apart (the strict ``>`` must not
separate them), on one to four cells given in any order, repeats included,
and on the first value only as well as on whole rows.  A row equal to an
earlier row on its first n values is skipped without a test in that cell,
so the cases include copies of kept and of rejected rows, rows equal only on
their first n values, and rows that share only their first value.  A kept
row blocks a row in every cell up to their separation index, so the cases
include a row blocked in a larger cell by a row the smaller cell rejected.
"""

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
    cells = _greedy(rows, ns, epsilon)
    assert len(cells) == len(ns)
    for n, kept in zip(ns, cells):
        assert len(kept) == oracles.greedy_count(rows, n, epsilon)
        assert kept == _kept_by_count(rows, n, epsilon)


def test_rows_exactly_epsilon_apart_are_not_separated():
    eps = Fraction(1, 3)
    rows = [[Fraction(0), Fraction(0)], [eps, -eps], [Fraction(0), eps + Fraction(1, 10**9)]]
    assert _greedy(rows, [2], eps) == [[0, 2]]
    assert _greedy(rows, [1], eps) == [[0]]
    assert _greedy(rows, [2, 1], eps) == [[0, 2], [0]]


@pytest.fixture(scope="module")
def tent_rows():
    # x and 1 - x share their row from t = 1 on, so most rows have an earlier copy
    grid = [Fraction(j, 2 ** 6) for j in range(2 ** 6 + 1)]
    rows, taints = _sample(autonomous_program(tent_map()), grid, range(1, 11))
    assert set(taints) == {None}
    assert len({tuple(r) for r in rows}) < len(rows)
    return rows


@pytest.mark.parametrize("seed", range(16))
def test_tent_rows_in_any_order_match_count_oracle(tent_rows, seed):
    rows = list(tent_rows)
    random.Random(seed).shuffle(rows)
    cells = _greedy(rows, [1, 4, 10], Fraction(1, 6))
    for n, kept in zip((1, 4, 10), cells, strict=True):
        assert kept == _kept_by_count(rows, n, Fraction(1, 6))


def test_greedy_hashes_at_most_one_value_per_row(monkeypatch):
    """The skip hashes each row's first value only.

    Hashing whole rows as tuples cost 0.16 s per n = 8 cell of the
    entropy-main benchmark workload, and an index of (numerator, denominator)
    keys mapping to row slices raised its peak_rss_mb by 6% (32.25 to
    34.18 MB), past the benchmark's 5% bound.
    """
    rows = [[F(j % 5, 7), F(j % 3, 2), F(j, 9)] for j in range(30)]
    rows += [list(r) for r in rows[::2]]
    ns = [2, 1, 3]
    expected = [_kept_by_count(rows, n, F(1, 8)) for n in ns]
    hashed = []
    real_hash = Fraction.__hash__

    def counting_hash(self):
        hashed.append(self)
        return real_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    kept = _greedy(rows, ns, F(1, 8))
    monkeypatch.undo()
    assert kept == expected
    assert 0 < len(hashed) <= len(rows)


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
