"""The program's kept greedy answers against fresh programs.

``greedy_separated`` samples its candidates at its whole time list A, makes
one greedy pass at its epsilon for every n in 1..len(A), and keeps the
answers on the program (``BlockProgram._kept_answers``, empty or one): the
candidates, A, epsilon, each kept row's index and mask, and each start's
first tainted time, but no sampled row.  It and ``entropy_estimate`` read
them only on equal candidates, times and epsilon (``1`` matches
``Fraction(1)``); a table never writes them, and on a miss holds only the
rows it keeps.  Every report and table of a random call sequence must equal
the same call on a fresh copy of the program, which samples afresh.  A read
flags only what its own n times show, and ``verify_separated`` samples
afresh, so it rejects a corrupted kept answer.
"""

import copy
import dataclasses
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ndslab import acceptance, analysis
from ndslab.analysis import entropy_estimate, greedy_separated, verify_separated
from ndslab.constructions import BlockProgram, Stage
from ndslab.plmap import tent_map

# the tent map with the frontier {1/2} and exact horizon 4: 1/16 and 3/16
# reach 1/2 at t = 3 and 7/32 at t = 4, the others never
PROGRAM = BlockProgram(
    stages=(Stage("tent", (tent_map(),)),), frontier=((F(1, 2), F(1, 2)),), exact_horizon=4
)
BASE = [F(1, 16), F(1), F(3, 16), F(1, 3), F(5, 12), F(7, 32), F(0), F(9, 20)]
VARIANTS = {
    "base": BASE,
    "ints": [1 if x == 1 else 0 if x == 0 else x for x in BASE],
    "swapped": [BASE[2], BASE[1], BASE[0], *BASE[3:]],
    "changed": [*BASE[:4], F(11, 32), *BASE[5:]],
}
# times past the exact horizon from n = 5 on; the second list shares only
# its first time with the first
TIMES = {"long": [1, 2, 3, 4, 5, 6], "other": [1, 3, 2, 6]}
EPSILONS = [F(1, 8), F(1, 4), F(1, 3)]


@st.composite
def calls(draw):
    kind = draw(st.sampled_from(["greedy", "table"]))
    cands = draw(st.sampled_from(sorted(VARIANTS)))
    times = draw(st.sampled_from(sorted(TIMES)))
    ns = st.integers(1, len(TIMES[times]))
    if kind == "greedy":
        return kind, cands, times, draw(ns), draw(st.sampled_from(EPSILONS))
    n_list = draw(st.lists(ns, min_size=1, max_size=3))
    epsilons = draw(st.lists(st.sampled_from(EPSILONS), min_size=1, max_size=2))
    return kind, cands, times, n_list, epsilons


def run(program, call):
    kind, cands, times, cells, eps = call
    if kind == "greedy":
        return greedy_separated(program, VARIANTS[cands], TIMES[times], cells, eps)
    return entropy_estimate(program, TIMES[times], eps, cells, VARIANTS[cands])


def fresh(program):
    return dataclasses.replace(program)


def spy_samples(mp):
    """Record the candidates of every ``analysis._sample`` call."""
    made = []
    sample = analysis._sample

    def spy(program, xs, times, taints):
        made.append(tuple(xs))
        return sample(program, xs, times, taints)

    mp.setattr(analysis, "_sample", spy)
    return made


# a candidate tainted at t = 3: the n = 6 call is flagged, the n = 2 read is
# not, and the table on all of the long times reads the same answers
TAINT_BETWEEN = [
    ("greedy", "base", "long", 6, F(1, 8)),
    ("greedy", "base", "long", 2, F(1, 8)),
    ("table", "base", "long", [6, 2], [F(1, 8)]),
]
# equal candidates and times at another epsilon: a miss
OTHER_EPSILON = [
    ("greedy", "base", "long", 4, F(1, 8)),
    ("greedy", "base", "long", 4, F(1, 3)),
    ("table", "base", "long", [6, 4], [F(1, 3), F(1, 8)]),
]


@given(st.lists(calls(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
@example(TAINT_BETWEEN)
@example(OTHER_EPSILON)
@example([("greedy", "base", "long", 4, F(1, 4)), ("greedy", "ints", "long", 3, F(1, 4))])
@example([("table", "base", "long", [6], [F(1, 4)]), ("table", "swapped", "long", [6], [F(1, 4)])])
@example([("greedy", "base", "long", 5, F(1, 3)), ("greedy", "changed", "long", 5, F(1, 3))])
def test_calls_match_fresh_program(sequence):
    program = fresh(PROGRAM)
    for call in sequence:
        assert run(program, call) == run(fresh(program), call)


@given(st.lists(calls(), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
@example(OTHER_EPSILON)
@example([("greedy", "base", "long", 4, F(1, 4)), ("greedy", "ints", "long", 3, F(1, 4))])
def test_each_call_samples_only_on_a_miss(sequence):
    # the test's own model of the slot predicts each call's hit or miss: a
    # greedy call keeps (candidates, A, epsilon), and a table keeps nothing
    program = fresh(PROGRAM)
    kept = None
    with pytest.MonkeyPatch.context() as mp:
        made = spy_samples(mp)
        for call in sequence:
            kind, cands, times, cells, eps = call
            n = len(TIMES[times]) if kind == "greedy" else max(cells)
            key = (tuple(VARIANTS[cands]), tuple(TIMES[times][:n]))
            epsilons = [eps] if kind == "greedy" else eps
            hit = kept is not None and kept[:2] == key and all(e == kept[2] for e in epsilons)
            before = len(made)
            run(program, call)
            assert len(made) - before == (0 if hit else 1)
            if kind == "greedy" and not hit:
                kept = (*key, eps)
            assert [a[:3] for a in program._kept_answers] == ([kept] if kept else [])


def test_taint_between_horizons_long_call_first():
    program = fresh(PROGRAM)
    long, short, table = TAINT_BETWEEN
    assert run(program, long).flagged
    answers, = program._kept_answers
    rep = run(program, short)
    assert not rep.flagged and rep == run(fresh(program), short)
    assert run(program, table) == run(fresh(program), table)
    assert program._kept_answers[0] is answers


def test_int_and_fraction_candidates_share_the_answers():
    program = fresh(PROGRAM)
    call = ("greedy", "base", "long", 4, F(1, 4))
    run(program, call)
    answers, = program._kept_answers
    rep = run(program, ("greedy", "ints", "long", 4, F(1, 4)))
    assert program._kept_answers[0] is answers
    assert rep == run(program, call)


def test_the_slot_holds_answers_not_rows():
    program = fresh(PROGRAM)
    A, eps = TIMES["long"], F(1, 8)
    witnesses = run(program, ("greedy", "base", "long", 6, eps)).witnesses
    (key, times, epsilon, kept, taints), = program._kept_answers
    assert (key, times, epsilon) == (tuple(BASE), tuple(A), eps)
    assert taints == [oracles.trajectory(PROGRAM, x, max(A)).tainted_from for x in BASE]
    # the candidates and epsilon are the only Fractions held; each kept
    # row's mask names the n that keep it
    assert all(type(i) is int and type(mask) is int and mask for i, mask in kept)
    assert [i for i, mask in kept if mask >> 5 & 1] == [BASE.index(w) for w in witnesses]


def test_a_table_keeps_nothing():
    # a table never writes the slot: asked twice it samples twice, a miss
    # leaves a greedy call's answers as they were, and a table on that
    # call's candidates, times and epsilon reads them
    program = fresh(PROGRAM)
    table = ("table", "base", "long", [3, 1], [F(1, 4)])
    with pytest.MonkeyPatch.context() as mp:
        made = spy_samples(mp)
        first = run(program, table)
        assert run(program, table) == first
        assert program._kept_answers == [] and len(made) == 2
        run(program, ("greedy", "base", "other", 2, F(1, 4)))
        answers, = program._kept_answers
        assert run(program, table) == first
        assert program._kept_answers[0] is answers and len(made) == 4
        hit = ("table", "base", "other", [4, 1], [F(1, 4)] * 2)
        assert run(program, hit) == run(fresh(program), hit)
        # only the fresh program sampled
        assert program._kept_answers[0] is answers and len(made) == 5


def test_a_table_on_a_strict_prefix_samples_afresh():
    # the kept times [1..6] start with the table's [1, 2, 3], but only equal
    # times are read
    program = fresh(PROGRAM)
    table = ("table", "base", "long", [3, 1], [F(1, 4)])
    run(program, ("greedy", "base", "long", 4, F(1, 4)))
    with pytest.MonkeyPatch.context() as mp:
        made = spy_samples(mp)
        assert run(program, table) == run(fresh(program), table)
        assert len(made) == 2


# the tracemalloc peak of criterion 8's tent table: 0.99 MB when it streams
# its sample and holds the rows it keeps, 1.78 MB when it lists every row
# first, and 3.19 MB when every start had a row (Python 3.11)
TENT_TABLE_PEAK = 1.4 * 2 ** 20


def _float_separation(row, other, epsilon):
    """analysis._separation through floats: exact on dyadic rows when no
    difference is within a float's rounding of epsilon."""
    e = float(epsilon)
    for t, (a, b) in enumerate(zip(row, other)):
        if abs(a.numerator / a.denominator - b.numerator / b.denominator) > e:
            return t
    return len(row)


def test_a_table_holds_only_the_rows_it_keeps(monkeypatch):
    # tracemalloc slows each Fraction subtraction of the greedy ~4x (22 s
    # for this table).  The tent's rows are multiples of 2^-12 and epsilon
    # is 1/6, so float differences decide every comparison as Fractions do,
    # and the comparison holds nothing: the peak is the same.  The table
    # below is the exact one.
    monkeypatch.setattr(analysis, "_separation", _float_separation)
    grid, eps = acceptance.entropy_inputs()
    program = acceptance.autonomous_program(tent_map())
    tracemalloc.start()
    try:
        table = entropy_estimate(program, list(range(1, 11)), [eps], [10], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.rows == (("1/6", 10, 990, math.log(990) / 10),)
    assert peak < TENT_TABLE_PEAK


def test_verify_rejects_a_corrupted_kept_answer():
    program = fresh(PROGRAM)
    rep = run(program, ("greedy", "base", "long", 4, F(1, 8)))
    assert verify_separated(program, rep)
    # every candidate now reads as kept in every cell, 0 and 1 too, which
    # meet at t = 1: the read returns them all, and verify, which samples
    # afresh, rejects them and still accepts the true report
    (key, A, _, kept, _), = program._kept_answers
    kept[:] = [(i, 2 ** len(A) - 1) for i in range(len(key))]
    bad = run(program, ("greedy", "base", "long", 4, F(1, 8)))
    assert bad.witnesses == tuple(BASE)
    snapshot = copy.deepcopy(program._kept_answers)
    assert not verify_separated(program, bad)
    assert verify_separated(program, rep)
    assert program._kept_answers == snapshot


@pytest.mark.parametrize("times", sorted(TIMES))
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_lone_greedy_flags_only_its_own_times(times, epsilon):
    # a miss samples all of A, past the taint at t = 3 and the exact horizon
    # 4; a cell of n < len(A) times must still read as a lone sample of
    # A[:n] does, and every n read from one call's kept answers too
    A = TIMES[times]
    shared = fresh(PROGRAM)
    greedy_separated(shared, BASE, A, len(A), epsilon)
    for n in range(1, len(A) + 1):
        cut = A[:n]
        T = max(cut)
        flagged = T > PROGRAM.exact_horizon or any(
            oracles.trajectory(PROGRAM, x, T).tainted for x in BASE
        )
        witnesses = oracles.greedy_witnesses(PROGRAM, BASE, A, n, epsilon)
        want = analysis.SeparationReport(
            times=tuple(cut),
            epsilon=epsilon,
            n=n,
            cardinality=len(witnesses),
            entropy_estimate=math.log(len(witnesses)) / cut[-1],
            witnesses=witnesses,
            flagged=flagged,
        )
        program = fresh(PROGRAM)
        assert greedy_separated(program, BASE, A, n, epsilon) == want
        assert program._kept_answers[0][1] == tuple(A)
        assert greedy_separated(shared, BASE, A, n, epsilon) == want
