"""Diagnostics: separated sets, entropy tables, pair classification, reports."""

import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import pytest

from ndslab import analysis
from ndslab.acceptance import autonomous_program, epsilon_zero, grid_in
from ndslab.analysis import (
    convergence_report,
    distality_report,
    entropy_estimate,
    eventual_constancy,
    greedy_separated,
    ly_classify,
    verify_separated,
)
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import (
    BlockProgram,
    Stage,
    StageParams,
    build_main_nds,
    lemma_nds,
    lemma_phi,
    times_S,
)
from ndslab.dynamics import trajectory
from ndslab.plmap import identity_map, tent_map
from ndslab.symbolic import ZERO, ONE, all_codes


@pytest.fixture(scope="module")
def bundle():
    return build_limit_map(build_atlas(8, Fraction(1, 2), 4))


@pytest.fixture(scope="module")
def main_prog(bundle):
    return build_main_nds(bundle, StageParams())


@pytest.fixture(scope="module")
def ident_prog():
    return autonomous_program(identity_map())


class TestRho:
    """rho_{n,A}(x, y), the largest distance over the first n sampled times,
    decides whether the greedy pass keeps both points of a pair."""

    def test_equal_points(self, ident_prog):
        pair = [Fraction(1, 3), Fraction(1, 3)]
        rep = greedy_separated(ident_prog, pair, [1, 2, 3], 3, Fraction(1, 10 ** 9))
        assert rep.cardinality == 1 and not rep.flagged

    def test_identity_distance(self, ident_prog):
        # rho = 1/2: the pair is separated below it and not at it
        pair = [Fraction(1, 4), Fraction(3, 4)]
        assert greedy_separated(ident_prog, pair, [1, 2], 2, Fraction(49, 100)).cardinality == 2
        assert greedy_separated(ident_prog, pair, [1, 2], 2, Fraction(1, 2)).cardinality == 1

    def test_monotone_in_n(self, main_prog):
        # with epsilon at each rho_n, the pair is kept whole exactly from the
        # first n with a larger rho_n on
        x, y = Fraction(1, 5), Fraction(4, 7)
        A = [1, 2, 3, 4, 5, 6]
        tx, ty = trajectory(main_prog, x, 6).values, trajectory(main_prog, y, 6).values
        rhos = [max(abs(tx[t] - ty[t]) for t in A[:n]) for n in range(1, 7)]
        for eps in {r for r in rhos if r > 0}:
            reps = [greedy_separated(main_prog, [x, y], A, n, eps) for n in range(1, 7)]
            assert [r.cardinality for r in reps] == [2 if r > eps else 1 for r in rhos]

    def test_horizon_flag(self, main_prog):
        h = main_prog.exact_horizon
        pair = [Fraction(1, 5), Fraction(2, 5)]
        assert greedy_separated(main_prog, pair, [h + 1], 1, Fraction(1, 2)).flagged


class TestGreedy:
    def test_soundness_reverified(self, main_prog, bundle):
        S = times_S(StageParams(), 5)
        cands = grid_in(Fraction(0), Fraction(1), 120)
        rep = greedy_separated(main_prog, cands, S, 5, epsilon_zero(bundle) / 2)
        assert rep.cardinality >= 1
        assert verify_separated(main_prog, rep)

    def test_verify_rejects_witnesses_sharing_a_row(self):
        # x and 1 - x share their tent row from t = 1 on, and so does a
        # witness listed twice
        prog = autonomous_program(tent_map())
        cands = [Fraction(j, 16) for j in range(9)]
        rep = greedy_separated(prog, cands, [1, 2, 3], 3, Fraction(1, 8))
        assert rep.cardinality > 2 and verify_separated(prog, rep)
        w = rep.witnesses[1]
        for shared in ((w, w), (w, 1 - w)):
            bad = dataclasses.replace(rep, witnesses=(*rep.witnesses, *shared))
            assert not verify_separated(prog, bad)
            bad = dataclasses.replace(rep, witnesses=shared)
            assert not verify_separated(prog, bad)

    def test_tent_growth(self):
        # slope-two full map: counts grow geometrically until the grid saturates
        prog = autonomous_program(tent_map())
        cands = [Fraction(j, 2 ** 10) for j in range(2 ** 10 + 1)]
        cards = []
        for n in (2, 4, 6, 8):
            rep = greedy_separated(prog, cands, list(range(1, 9)), n, Fraction(1, 4))
            cards.append(rep.cardinality)
        assert all(a < b for a, b in zip(cards, cards[1:]))
        assert cards[1] >= 2 * cards[0] and cards[2] >= 2 * cards[1]
        assert cards[-1] >= 2 ** 6

    def test_epsilon_validation(self, ident_prog):
        with pytest.raises(ValueError):
            greedy_separated(ident_prog, [Fraction(0)], [1], 1, Fraction(0))

    def test_n_validation(self, ident_prog):
        with pytest.raises(ValueError):
            greedy_separated(ident_prog, [Fraction(0)], [1, 2], 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            greedy_separated(ident_prog, [Fraction(0)], [1, 2], 3, Fraction(1, 2))

    def test_horizon_flag_matches_rho(self):
        # the flag follows the times that rho_{n,A} samples: a time beyond
        # the exact horizon is inexact even when no trajectory is tainted
        prog = BlockProgram(stages=(Stage("id", (identity_map(),)),), exact_horizon=2)
        cands = [Fraction(0), Fraction(1)]
        reps = [greedy_separated(prog, cands, [1, 2, 3], n, Fraction(1, 2)) for n in (1, 2, 3)]
        assert [r.flagged for r in reps] == [False, False, True]


class TestEntropyTable:
    def test_identity_exactly_zero(self, ident_prog):
        cands = grid_in(Fraction(0), Fraction(1), 64)
        table = entropy_estimate(ident_prog, [1, 2, 3], [Fraction(1)], [3], cands)
        assert table.headline == 0.0

    def test_monotone_in_epsilon(self):
        prog = autonomous_program(tent_map())
        cands = [Fraction(j, 2 ** 10) for j in range(2 ** 10 + 1)]
        table = entropy_estimate(
            prog, list(range(1, 9)), [Fraction(1, 4), Fraction(1, 8)], [8], cands
        )
        small = [r for r in table.rows if r[0] == "1/8"][0]
        big = [r for r in table.rows if r[0] == "1/4"][0]
        assert small[2] >= big[2]

    @pytest.mark.parametrize(
        "epsilons, n_list", [([Fraction(1, 4)], []), ([], [1]), ([], [])]
    )
    def test_empty_cells_rejected_before_sampling(
        self, ident_prog, monkeypatch, epsilons, n_list
    ):
        def no_sampling(*args):
            raise AssertionError("sampled before validating the cells")

        monkeypatch.setattr(analysis, "_sample", no_sampling)
        with pytest.raises(ValueError, match="at least one epsilon and one n"):
            entropy_estimate(ident_prog, [1, 2], epsilons, n_list, [Fraction(0)])

    def test_cells_bounded_by_candidate_count(self):
        prog = autonomous_program(tent_map())
        cands = grid_in(Fraction(0), Fraction(1), 100)
        table = entropy_estimate(prog, [1, 2, 3, 4], [Fraction(1, 8)], [4], cands)
        for _, n, card, est in table.rows:
            assert card <= 100
            assert est <= math.log(100) / table.A[n - 1] + 1e-12


class TestLyClassify:
    def test_equal_points_asymptotic(self, main_prog):
        v = ly_classify(main_prog, Fraction(1, 3), Fraction(1, 3), 20, Fraction(1, 100))
        assert v.classification == "asymptotic-candidate"
        assert v.tail_max == 0

    def test_identity_distal(self, ident_prog):
        v = ly_classify(ident_prog, Fraction(1, 4), Fraction(3, 4), 10, Fraction(1, 10))
        assert v.classification == "distal-candidate"

    def test_lemma_no_ly(self):
        # the tail window [T/2, T] must start after the last flattening map
        # has acted a few times (ramp points take two or three tail steps),
        # otherwise pre-collapse distances masquerade as limsup witnesses
        prog = lemma_nds(5)
        T = 2 * prog.stage_length + 10
        xs = [Fraction(j, 2 ** 10) for j in range(0, 2 ** 10 + 1, 8)]
        partners = [Fraction(1, 2), Fraction(1, 3), Fraction(17, 64), Fraction(9, 10)]
        delta = Fraction(1, 128)
        for x in xs:
            for y in partners:
                if x == y:
                    continue
                v = ly_classify(prog, x, y, T, delta)
                assert v.classification != "LY-candidate", (x, y)

    def test_validation(self, ident_prog):
        with pytest.raises(ValueError):
            ly_classify(ident_prog, Fraction(0), Fraction(1), 0, Fraction(1, 10))


class TestEventualConstancy:
    def test_identity_settles_at_start(self, ident_prog):
        assert eventual_constancy(ident_prog, Fraction(2, 7), 5) == (0, Fraction(2, 7))

    def test_lemma_half_fixed(self):
        prog = lemma_nds(3)
        t0, v = eventual_constancy(prog, Fraction(1, 2), 8)
        assert (t0, v) == (0, Fraction(1, 2))

    def test_lemma_stack_point_settles_after_first_block(self):
        prog = lemma_nds(3)
        res = eventual_constancy(prog, Fraction(2, 5), 8)
        assert res is not None
        t0, v = res
        assert v == Fraction(1, 2) and t0 <= 2  # block one is phi_1, psi_1

    def test_moving_point_does_not_settle(self, bundle, main_prog):
        c0 = sum(bundle.atlas.interval_of(ZERO)) / 2
        assert eventual_constancy(main_prog, c0, 30) is None


class TestDistality:
    def test_pairs_hold_bound(self, bundle, main_prog):
        pairs = list(combinations(all_codes(2), 2))
        rows = distality_report(bundle, main_prog, pairs, 2 ** 6)
        assert all(r.ok for r in rows)

    def test_split_depths(self, bundle, main_prog):
        rows = distality_report(bundle, main_prog, [(ZERO, ONE)], 4)
        assert rows[0].split_depth == 1

    def test_rejects_equal_codes(self, bundle, main_prog):
        with pytest.raises(ValueError):
            distality_report(bundle, main_prog, [(ZERO, ZERO)], 4)

    def test_horizon_guard(self, bundle, main_prog):
        with pytest.raises(ValueError):
            distality_report(bundle, main_prog, [(ZERO, ONE)], bundle.exact_horizon + 1)


class TestConvergence:
    def test_autonomous_limit_is_zero(self, bundle):
        prog = autonomous_program(bundle.f, bundle)
        rows, strict = convergence_report(bundle, prog)
        assert rows[0].envelope == 0

    def test_main_envelopes(self, bundle, main_prog):
        rows, strict = convergence_report(bundle, main_prog)
        assert strict
        for r in rows:
            assert r.within_bound

