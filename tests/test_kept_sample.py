"""The program's kept candidate sample against fresh programs.

``greedy_separated`` keeps its last candidate sample on the program
(``BlockProgram._kept_sample``, empty or one sample, taken at the call's whole
time list A, with None for the row of a start that repeats an earlier
start's value), and it and ``entropy_estimate`` read it only when a later
call has equal candidates and equal times; a table keeps nothing, and on a
miss holds only the rows it keeps.  Every report and table of a random call
sequence must equal the same call on a fresh copy of the program, which
samples afresh.  The cases cover a candidate tainted strictly between a
short and a long horizon with the long call first, times past the exact
horizon, lists that differ in one element or in order, and ``1`` against
``Fraction(1)``.  The slot holds at most one sample, a miss (a table on a
strict prefix of the kept times too) empties it before its first
trajectory, a table asked twice samples twice, and ``verify_separated``
neither reads nor replaces it.  A lone greedy call samples all of its times
but flags only what its first n show, as the oracle sampling A[:n] does.
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


# a candidate tainted at t = 3: the n = 6 call is flagged, the n = 2 hit is
# not, and the table on all of the long times reads the same sample
TAINT_BETWEEN = [
    ("greedy", "base", "long", 6, F(1, 8)),
    ("greedy", "base", "long", 2, F(1, 8)),
    ("table", "base", "long", [6, 2], [F(1, 8)]),
]


@given(st.lists(calls(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
@example(TAINT_BETWEEN)
@example([("greedy", "base", "long", 4, F(1, 4)), ("greedy", "ints", "long", 3, F(1, 4))])
@example([("table", "base", "long", [6], [F(1, 4)]), ("table", "swapped", "long", [6], [F(1, 4)])])
@example([("greedy", "base", "long", 5, F(1, 3)), ("greedy", "changed", "long", 5, F(1, 3))])
def test_calls_match_fresh_program(sequence):
    program = fresh(PROGRAM)
    for call in sequence:
        assert run(program, call) == run(fresh(program), call)


def test_taint_between_horizons_long_call_first():
    program = fresh(PROGRAM)
    long, short, table = TAINT_BETWEEN
    assert run(program, long).flagged
    kept, = program._kept_sample
    rep = run(program, short)
    assert not rep.flagged
    assert program._kept_sample[0] is kept
    assert rep == run(fresh(program), short)
    assert run(program, table) == run(fresh(program), table)
    assert program._kept_sample[0] is kept


def test_int_and_fraction_candidates_share_the_sample():
    program = fresh(PROGRAM)
    call = ("greedy", "base", "long", 4, F(1, 4))
    run(program, call)
    kept, = program._kept_sample
    rep = run(program, ("greedy", "ints", "long", 4, F(1, 4)))
    assert program._kept_sample[0] is kept
    assert rep == run(program, call)


@given(st.lists(calls(), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_one_sample_and_empty_slot_at_every_trajectory(sequence):
    # the test's own model of the slot predicts each call's hit or miss
    program = fresh(PROGRAM)
    trajectory = analysis.trajectory
    made = []

    def spy(prog, *args):
        assert prog._kept_sample == []
        made.append(args)
        return trajectory(prog, *args)

    kept = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "trajectory", spy)
        for call in sequence:
            kind, cands, times, cells, _ = call
            # a greedy call samples all of its time list, a table its first
            # max(n_list) times
            n = len(TIMES[times]) if kind == "greedy" else max(cells)
            key, sampled = tuple(VARIANTS[cands]), tuple(TIMES[times][:n])
            hit = kept == (key, sampled)
            before = len(made)
            run(program, call)
            assert len(made) - before == (0 if hit else len(key))
            if not hit:
                kept = (key, sampled) if kind == "greedy" else None
            assert [s[:2] for s in program._kept_sample] == ([kept] if kept else [])



def test_a_table_keeps_nothing():
    # a table asked twice on one program samples twice, as on a fresh one,
    # and a table that misses drops the sample a greedy call kept
    program = fresh(PROGRAM)
    trajectory = analysis.trajectory
    made = []

    def spy(*args):
        made.append(args)
        return trajectory(*args)

    table = ("table", "base", "long", [3, 1], [F(1, 4)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "trajectory", spy)
        first = run(program, table)
        assert program._kept_sample == [] and len(made) == len(BASE)
        assert run(program, table) == first
        assert program._kept_sample == [] and len(made) == 2 * len(BASE)
        run(program, ("greedy", "base", "other", 2, F(1, 4)))
        assert len(program._kept_sample) == 1
        assert run(program, table) == first
        assert program._kept_sample == [] and len(made) == 4 * len(BASE)


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


def test_a_table_on_a_strict_prefix_samples_afresh():
    # the kept times [1..6] start with the table's [1, 2, 3], but only equal
    # times are read: the table samples its own and empties the slot
    program = fresh(PROGRAM)
    trajectory = analysis.trajectory
    made = []

    def spy(*args):
        made.append(args)
        return trajectory(*args)

    table = ("table", "base", "long", [3, 1], [F(1, 4)])
    run(program, ("greedy", "base", "long", 4, F(1, 4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "trajectory", spy)
        assert run(program, table) == run(fresh(program), table)
        assert len(made) == 2 * len(BASE)
    assert program._kept_sample == []


def _corrupt(program):
    """Overwrite every kept row with the candidate's index and return a copy."""
    (_, _, rows, _), = program._kept_sample
    assert None in rows  # 0 and 1 meet at t = 1
    for i, row in enumerate(rows):
        if row is not None:
            row[:] = [F(i)] * len(row)
    return copy.deepcopy(program._kept_sample)


def test_verify_ignores_corrupted_sample():
    program = fresh(PROGRAM)
    call = ("greedy", "base", "long", 4, F(1, 8))
    rep = run(program, call)
    assert verify_separated(fresh(program), rep)
    # every kept row is now far from every other: a pair of close witnesses
    # is still rejected, and the kept witnesses still pass
    snapshot = _corrupt(program)
    close = dataclasses.replace(rep, witnesses=(F(1, 3), F(1, 3) + F(1, 1024)))
    assert not verify_separated(fresh(program), close)
    assert not verify_separated(program, close)
    assert verify_separated(program, rep)
    assert program._kept_sample == snapshot
    # with every kept row equal, the rows the slot holds would reject rep
    (_, _, rows, _), = program._kept_sample
    for row in filter(None, rows):
        row[:] = [F(0)] * len(row)
    snapshot = copy.deepcopy(program._kept_sample)
    assert verify_separated(program, rep)
    assert program._kept_sample == snapshot


@pytest.mark.parametrize("times", sorted(TIMES))
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_lone_greedy_flags_only_its_own_times(times, epsilon):
    # the miss samples all of A, past the taint at t = 3 and the exact
    # horizon 4; a cell of n < len(A) times must still read as a lone
    # sample of A[:n] does
    A = TIMES[times]
    for n in range(1, len(A)):
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
        assert program._kept_sample[0][1] == tuple(A)
