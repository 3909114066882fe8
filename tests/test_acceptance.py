"""The acceptance battery, one test per shipped criterion.

Each test prints its PASS/FAIL line (run pytest with -s to see them inline;
they also appear in the captured output on failure).  Criterion 7c is marked
as a strict expected failure: an exactly constant trajectory tail would
require a common fixed point of every later map in the sequence, but the
collapse maps send their stacks onto interval centres, which the limit map
keeps moving; the scan measures 0 settled points, and the test documents
that honestly rather than weakening the assertion.
"""

import dataclasses
import inspect

import pytest

from ndslab import acceptance, analysis
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import StageParams, build_main_nds


@pytest.fixture(scope="module")
def main_fixture():
    return acceptance._main_fixture()


@pytest.fixture(scope="module")
def depth8_fixture():
    bundle = build_limit_map(build_atlas(8, acceptance.DEFAULT_RHO, acceptance.DEFAULT_BASE))
    params = StageParams()
    return bundle, params, build_main_nds(bundle, params)


# the details string of every criterion, recorded from the battery before a
# trajectory stored its taint as one time; 7c's is pinned outside its xfail
DETAILS = {
    "1": "126 blocks verified exactly; runtime limit 5s",
    "2": "all cylinders of length <= 8 return in exactly 2^k steps",
    "3": "blocks 1..5 collapse exactly on the 1/512 grid",
    "4": "cards [10, 27, 68, 180, 480] vs bounds [3, 9, 27, 81, 243]; runtime limit 60s",
    "5": "order, deep-cylinder bijection, interval action, hull cycles (full cycles certified up to level 9), nesting",
    "6": "estimate 0.0244 (cardinality 512) <= 0.05",
    "7a": "B1=0.3090<=0.4167, B2=0.2115<=0.2431, B3=0.1810<=0.1904",
    "7b": "counts n=3:53>=9, n=8:87>=81, headline 1.701>=0.9*log3",
    "7c": "0/812 sampled points settle within 85 steps",
    "7d": "0/1000 LY-candidates at delta=eps0/4",
    "7e": "all 496 pairs keep their split-depth gap bound",
    "8": "tent headline 0.6898 around log2, identity 0.0",
    "9": "96 trajectory pairs agree exactly in orbit coordinates",
}


def _report(result):
    print(result.line())
    return result


def test_criterion_1_reversing_orbit_closure():
    r = _report(acceptance.criterion_1())
    assert r.ok, r.details
    assert r.details == DETAILS["1"]


def test_criterion_2_cylinder_first_returns():
    r = _report(acceptance.criterion_2())
    assert r.ok, r.details
    assert r.details == DETAILS["2"]


def test_criterion_3_block_collapse():
    r = _report(acceptance.criterion_3())
    assert r.ok, r.details
    assert r.details == DETAILS["3"]


def test_criterion_4_horseshoe_counts():
    r = _report(acceptance.criterion_4())
    assert r.ok, r.details
    assert r.details == DETAILS["4"]


def test_criterion_5_blowup_structure():
    r = _report(acceptance.criterion_5())
    assert r.ok, r.details
    assert r.details == DETAILS["5"]


def test_criterion_6_zero_entropy_proxy():
    r = _report(acceptance.criterion_6())
    assert r.ok, r.details
    assert r.details == DETAILS["6"]


def test_criterion_7a_convergence_envelopes(main_fixture):
    r = _report(acceptance.criterion_7a(main_fixture))
    assert r.ok, r.details
    assert r.details == DETAILS["7a"]


def test_criterion_7b_separated_growth(main_fixture):
    r = _report(acceptance.criterion_7b(main_fixture))
    assert r.ok, r.details
    assert r.details == DETAILS["7b"]


def test_criterion_7b_computes_each_cell_once(depth8_fixture, monkeypatch):
    # three greedy cells, n = 3 first, and no entropy table.  The n = 3 cell
    # samples the candidates at all 8 times of S and makes one greedy pass
    # for every n <= 8; the n = 8 and n = 1 cells, and then the entropy-main
    # benchmark's table over n = 1, 3, 8, read the answers the program kept.
    # Only the two verify calls sample again, their witnesses.  The
    # headline is the one that table gives on a fresh program.
    greedy, sample, passes = acceptance.greedy_separated, analysis._sample, analysis._greedy
    cells, tables, sampled, made = [], [], [], []

    def greedy_spy(*args):
        rep = greedy(*args)
        cells.append((args, rep))
        return rep

    def sample_spy(program, xs, times, taints):
        sampled.append(tuple(xs))
        return sample(program, xs, times, taints)

    def greedy_pass_spy(*args):
        made.append(args)
        return passes(*args)

    monkeypatch.setattr(acceptance, "greedy_separated", greedy_spy)
    monkeypatch.setattr(acceptance, "entropy_estimate", lambda *args: tables.append(args))
    monkeypatch.setattr(analysis, "_sample", sample_spy)
    monkeypatch.setattr(analysis, "_greedy", greedy_pass_spy)
    assert acceptance.criterion_7b(depth8_fixture).ok
    assert [args[3] for args, _ in cells] == [3, 8, 1]
    assert tables == []
    program, cands, S, _, eps = cells[0][0]
    table = analysis.entropy_estimate(program, S, [eps], [1, 3, 8], cands)
    witnesses = [rep.witnesses for _, rep in cells[:2]]
    assert sampled == [tuple(cands), *witnesses] and len(made) == 1
    monkeypatch.undo()
    # the slot holds answers: indices, masks and taints, no sampled row
    (key, A, epsilon, kept, taints), = program._kept_answers
    assert (key, A, epsilon) == (tuple(cands), tuple(S), eps)
    assert all(type(i) is type(mask) is int for i, mask in kept)
    assert all(t is None or type(t) is int for t in taints)
    headline = max(rep.entropy_estimate for _, rep in cells)
    fresh = dataclasses.replace(program)
    assert fresh._kept_answers == []
    assert headline == table.headline
    assert table == analysis.entropy_estimate(fresh, S, [eps], [1, 3, 8], cands)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "exact constancy would need a common fixed point of all later maps; "
        "the collapse values are interval centres, which the limit map moves"
    ),
)
def test_criterion_7c_eventual_constancy(main_fixture):
    r = _report(acceptance.criterion_7c(main_fixture))
    assert r.ok, r.details


def test_criterion_7c_details(main_fixture):
    # a strict xfail absorbs any assertion, so 7c's string is pinned here
    r = acceptance.criterion_7c(main_fixture)
    assert not r.ok and r.expected_fail
    assert r.details == DETAILS["7c"]


def test_criterion_7d_ly_scan(main_fixture):
    r = _report(acceptance.criterion_7d(main_fixture))
    assert r.ok, r.details
    assert r.details == DETAILS["7d"]


@pytest.mark.parametrize("max_code_depth", [-1, 13])
def test_ly_scan_codes_beyond_the_atlas_raise(main_fixture, max_code_depth):
    bundle, _, program = main_fixture
    with pytest.raises(ValueError, match="outside 0..12"):
        acceptance.ly_scan(bundle, program, 10, max_code_depth)


def test_criterion_7e_distality(main_fixture):
    r = _report(acceptance.criterion_7e(main_fixture))
    assert r.ok, r.details
    assert r.details == DETAILS["7e"]


def test_criterion_8_estimator_oracles():
    r = _report(acceptance.criterion_8())
    assert r.ok, r.details
    assert r.details == DETAILS["8"]


def test_criterion_9_model_consistency():
    r = _report(acceptance.criterion_9())
    assert r.ok, r.details
    assert r.details == DETAILS["9"]


# ---------------------------------------------------------------------------
# the criterion runner


def test_runtime_limit_fails_and_is_reported():
    @acceptance._criterion("x", "limited", limit=0.0)
    def check(arg):
        return arg, "done"

    r = check(True)
    assert not r.ok and r.elapsed >= 0.0
    assert r.details.endswith("; runtime limit 0s")
    assert r.line().startswith("[FAIL] x limited: done; runtime limit 0s [")


def test_expected_failure_carries_the_known_limitation_note():
    @acceptance._criterion("y", "limitation", expected_fail=True)
    def check():
        return False, "0/3 settle"

    r = check()
    assert not r.ok and r.expected_fail
    assert "0/3 settle (known limitation, see README) [" in r.line()


def test_criteria_keep_their_identity():
    # perfbench/tracing.py picks public functions by __module__
    for name in ("criterion_1", "criterion_7a", "criterion_9"):
        fn = getattr(acceptance, name)
        assert fn.__name__ == name
        assert fn.__module__ == "ndslab.acceptance"
        assert fn.__doc__ == fn.__wrapped__.__doc__ and fn.__doc__
    assert acceptance.criterion_7a.__doc__.startswith("Uniform-convergence envelopes")
    assert list(inspect.signature(acceptance.criterion_7a).parameters) == ["fixture"]
