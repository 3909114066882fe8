"""Both map families: pointwise values, interval actions, program shapes."""

from fractions import Fraction

import pytest

import oracles
from oracles import cylinder_codes
from ndslab.acceptance import autonomous_program
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import (
    StageParams,
    StageSpec,
    build_g1inf,
    build_k_interval,
    build_lambda,
    build_main_nds,
    build_phi_stage,
    build_psi_stage,
    _collar_width,
    lemma_K,
    lemma_nds,
    lemma_phi,
    lemma_psi,
    stack_rel,
    times_R,
    times_S,
)
from ndslab.plmap import (
    compose,
    compose_chain,
    eval_pl,
    interval_image,
    is_surjective,
    lap_count,
    sup_distance,
)
from ndslab.symbolic import (
    Block,
    Code,
    ZERO,
    ONE,
    canonicalize,
    evaluate_e,
    int_to_word,
    position,
    tau,
)


@pytest.fixture(scope="module")
def bundle():
    return build_limit_map(build_atlas(8, Fraction(1, 2), 4))


@pytest.fixture(scope="module")
def params():
    return StageParams()


def eta_step(bundle, n_block):
    """The plain stage step: the limit map after lambda."""
    return compose(bundle.f, build_lambda(bundle, n_block))


class TestLemmaMaps:
    def test_phi1_published_values(self):
        phi = lemma_phi(1)
        assert eval_pl(phi, Fraction(1, 3)) == Fraction(1, 3)
        assert eval_pl(phi, Fraction(4, 9)) == Fraction(2, 3)

    def test_phi1_corrected_piece(self):
        # continuity forces the last inner piece through (5/9, 1/3), (2/3, 2/3)
        phi = lemma_phi(1)
        assert eval_pl(phi, Fraction(5, 9)) == Fraction(1, 3)
        assert eval_pl(phi, Fraction(2, 3)) == Fraction(2, 3)

    def test_phi1_center_fixed(self):
        assert eval_pl(lemma_phi(1), Fraction(1, 2)) == Fraction(1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_phi_three_laps_onto_stack(self, n):
        phi = lemma_phi(n)
        a, b = lemma_K(n)
        assert lap_count(phi) == 3
        assert interval_image(phi, a, b) == (a, b)
        assert is_surjective(phi)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_psi_values(self, n):
        psi = lemma_psi(n)
        a_n, b_n = lemma_K(n)
        assert eval_pl(psi, Fraction(1, 2)) == Fraction(1, 2)
        assert eval_pl(psi, a_n) == Fraction(1, 2)
        assert eval_pl(psi, Fraction(0)) == 0
        assert is_surjective(psi)

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError):
            lemma_phi(0)
        with pytest.raises(ValueError):
            lemma_psi(-1)

    def test_stacks_start_at_a_third_and_grow(self):
        # a_1 = 1/3 and a_n decreases strictly inside (0, 1/2)
        stacks = [lemma_K(n) for n in range(1, 50)]
        assert stacks[0] == (Fraction(1, 3), Fraction(2, 3))
        lefts = [a for a, _ in stacks]
        assert all(0 < later < earlier < Fraction(1, 2) for earlier, later in zip(lefts, lefts[1:]))
        assert all(a + b == 1 for a, b in stacks)


class TestLemmaProgram:
    def test_block_layout(self):
        prog = lemma_nds(num_stages=3)
        assert prog.map_at(1) == lemma_phi(1)
        assert prog.map_at(2) == lemma_psi(1)  # i_1 = 1 repeat
        assert prog.map_at(3) == lemma_phi(2)
        # beyond all stages: tail repeats the last flattening map
        total = prog.stage_length
        assert prog.map_at(total + 10) == lemma_psi(3)

    def test_repeats_give_the_block_lengths(self):
        prog = lemma_nds(num_stages=2, repeats=[3, 1, 7])
        assert [len(s.maps) for s in prog.stages] == [4, 2]
        assert [s.meta["repeats"] for s in prog.stages] == [3, 1]

    @pytest.mark.parametrize(
        "num_stages, repeats",
        [(0, None), (4, [1, 2, 3]), (3, [1, 2, 0]), (True, None), (2, [1, True]), (2.0, None)],
        ids=[
            "no-stages",
            "repeats-shorter-than-stages",
            "zero-count-in-last-block",
            "bool-stage-count",
            "bool-repeat",
            "float-stage-count",
        ],
    )
    def test_rejects_bad_counts_before_building(self, monkeypatch, num_stages, repeats):
        def fail(n):
            raise AssertionError("a map was built before the counts were checked")

        monkeypatch.setattr("ndslab.constructions.lemma_phi", fail)
        with pytest.raises((ValueError, TypeError)):
            lemma_nds(num_stages, repeats)

    def test_block_composition_collapses(self):
        for k in (1, 2, 3):
            block = compose_chain([lemma_phi(k)] * k + [lemma_psi(k)])
            psi = lemma_psi(k)
            for i in range(0, 513, 3):
                x = Fraction(i, 512)
                assert eval_pl(block, x) == eval_pl(psi, x)

    def test_composed_with_phi_iterates_equals_psi(self):
        # the flattening map absorbs any number of preceding horseshoe steps
        phi, psi = lemma_phi(2), lemma_psi(2)
        comp = compose(psi, compose(phi, phi))
        for i in range(0, 513, 7):
            x = Fraction(i, 512)
            assert eval_pl(comp, x) == eval_pl(psi, x)


class TestLambda:
    def test_permutes_intervals_by_reversal(self, bundle):
        lam = build_lambda(bundle, Block("1"))
        for c in cylinder_codes(bundle.atlas, "1"):
            g = bundle.atlas.interval_of(c)
            assert interval_image(lam, *g) == bundle.atlas.interval_of(tau(Block("1"), c))

    def test_identity_off_cylinder(self, bundle):
        lam = build_lambda(bundle, Block("1"))
        for block, tail in (("", 0), ("01", 0), ("001", 0)):
            g = bundle.atlas.interval_of(canonicalize(block, tail))
            assert interval_image(lam, *g) == g

    def test_interval_involution(self, bundle):
        lam = build_lambda(bundle, Block("11"))
        for c in cylinder_codes(bundle.atlas, "11")[:16]:
            g = bundle.atlas.interval_of(c)
            once = interval_image(lam, *g)
            assert interval_image(lam, *once) == g

    def test_surjective_and_continuous_structure(self, bundle):
        for word in ("1", "11", "0"):
            lam = build_lambda(bundle, Block(word))
            assert is_surjective(lam)

    def test_maps_follower_onto_predecessor(self, bundle):
        lam = build_lambda(bundle, Block("11"))
        follower = bundle.atlas.interval_of(canonicalize("11", 0))
        predecessor = bundle.atlas.interval_of(ONE)  # all-ones tail in the cylinder
        assert interval_image(lam, *follower) == predecessor


class TestEtaStage:
    def test_period_at_interval_level(self, bundle):
        for word in ("1", "11"):
            eta = eta_step(bundle, Block(word))
            k = len(word)
            g = bundle.atlas.interval_of(canonicalize(word, 0))
            cur = g
            seen = []
            for _ in range(2 ** k):
                cur = interval_image(eta, *cur)
                seen.append(cur)
            assert cur == g
            assert len(set(seen)) == 2 ** k

    def test_single_cylinder_visit(self, bundle):
        word = "11"
        eta = eta_step(bundle, Block(word))
        hull = bundle.atlas.hull(2, evaluate_e(Block(word)))
        cur = bundle.atlas.interval_of(ZERO)
        visits = 0
        for _ in range(4):
            cur = interval_image(eta, *cur)
            if hull[0] <= cur[0] and cur[1] <= hull[1]:
                visits += 1
        assert visits == 1

    def test_period_dichotomy_for_shallow_intervals(self, bundle):
        # every blown interval of depth <= 4 is periodic under the stage
        # step, with period exactly 2^k on the base cycle and a proper
        # multiple of 2^k elsewhere
        word = "11"
        k = len(word)
        eta = eta_step(bundle, Block(word))
        base_cycle = set()
        cur = bundle.atlas.interval_of(ZERO)
        for _ in range(2 ** k):
            base_cycle.add(cur)
            cur = interval_image(eta, *cur)
        from ndslab.symbolic import all_codes

        for c in all_codes(4):
            g = bundle.atlas.interval_of(c)
            cur, period = g, None
            for m in range(1, 257):
                cur = interval_image(eta, *cur)
                if cur == g:
                    period = m
                    break
            assert period is not None and period % 2 ** k == 0, str(c)
            if g in base_cycle:
                assert period == 2 ** k
            else:
                assert period > 2 ** k

    def test_sup_distance_bounded_by_hull_image(self, bundle):
        sups = []
        for word in ("1", "11", "111"):
            eta = eta_step(bundle, Block(word))
            k = len(word)
            p = evaluate_e(Block(word))
            image_hull = bundle.atlas.hull(k, (p + 1) % 2 ** k)
            sup = sup_distance(bundle.f, eta)
            assert sup <= image_hull[1] - image_hull[0]
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]


class TestKIntervals:
    def test_nested_and_longer_than_a_third(self, bundle):
        g0 = bundle.atlas.interval_of(ZERO)
        k1 = build_k_interval(bundle, 1, 0)
        k2 = build_k_interval(bundle, 2, 0)
        assert g0[0] < k1[0] < k2[0] or (k1[0] > k2[0])  # ordering below
        assert k1[1] - k1[0] > (g0[1] - g0[0]) / 3
        assert k2[0] < k1[0] and k1[1] < k2[1]  # K^1 inside K^2
        assert g0[0] < k2[0] and k2[1] < g0[1]

    def test_travels_linearly(self, bundle):
        k0 = build_k_interval(bundle, 1, 0)
        img = interval_image(bundle.f, *k0)
        assert img == build_k_interval(bundle, 1, 1)

    def test_horizon_guard(self, bundle):
        # the atlas holds the orbit indices -2^D <= j < 2^D
        half = 2 ** bundle.atlas.depth
        build_k_interval(bundle, 1, half - 1)
        build_k_interval(bundle, 1, -half)
        for j in (half, -half - 1):
            with pytest.raises(ValueError, match="not in the atlas"):
                build_k_interval(bundle, 1, j)


class TestStageMaps:
    def test_phi_three_laps_onto_next(self, bundle, params):
        phi = build_phi_stage(bundle, params, 1, 1)
        p = params.stages[0].p
        K = build_k_interval(bundle, 1, p)
        K_next = build_k_interval(bundle, 1, p + 1)
        assert interval_image(phi, *K) == K_next

    def test_phi_equals_limit_outside(self, bundle, params):
        phi = build_phi_stage(bundle, params, 1, 1)
        p = params.stages[0].p
        K = build_k_interval(bundle, 1, p)
        for x in (Fraction(0), K[0], K[1], Fraction(1), Fraction(1, 7)):
            assert eval_pl(phi, x) == eval_pl(bundle.f, x)

    def test_phi_rejects_level_zero(self, bundle, params):
        with pytest.raises(ValueError):
            build_phi_stage(bundle, params, 1, 0)

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_stage_index_outside_the_stages(self, bundle, params, i):
        # stages count from 1: index 0 must not wrap round to the last stage
        for build in (
            lambda: build_phi_stage(bundle, params, i, 1),
            lambda: build_psi_stage(bundle, params, i, 1),
            lambda: build_g1inf(bundle, params, i, 1),
            lambda: times_R(params, i, 2),
        ):
            with pytest.raises(ValueError, match="outside 1..3"):
                build()

    def test_psi_constant_on_stack(self, bundle, params):
        psi = build_psi_stage(bundle, params, 1, 1)
        p = params.stages[0].p
        K = build_k_interval(bundle, 1, p)
        g_next = bundle.atlas.interval_of(Code(p + 1))
        centre = (g_next[0] + g_next[1]) / 2
        for t in range(5):
            x = K[0] + (K[1] - K[0]) * Fraction(t, 4)
            assert eval_pl(psi, x) == centre

    def test_psi_equals_limit_outside_wider_stack(self, bundle, params):
        psi = build_psi_stage(bundle, params, 1, 1)
        p = params.stages[0].p
        outer = build_k_interval(bundle, 2, p)
        for x in (Fraction(0), outer[0], outer[1], Fraction(1)):
            assert eval_pl(psi, x) == eval_pl(bundle.f, x)

    def test_psi_splice_lands_in_image_interval(self, bundle, params):
        psi = build_psi_stage(bundle, params, 1, 1)
        p = params.stages[0].p
        outer = build_k_interval(bundle, 2, p)
        g_next = bundle.atlas.interval_of(Code(p + 1))
        for x in outer:
            assert g_next[0] <= eval_pl(psi, x) <= g_next[1]


# every visit 2^(D-1) < p <= 2^D - 2 at D = 3..6: the indices past the exact
# horizon that f_D still carries onto G_(p+1)
PAST_THE_HORIZON = [(d, p) for d in range(3, 7) for p in range(2 ** (d - 1) + 1, 2 ** d - 1)]


class TestVisitLimits:
    """A stage may visit every orbit index the atlas holds but the frontier code."""

    @staticmethod
    def _check_fold_is_exact(bundle, block, n):
        params = StageParams((StageSpec(block, 1),))
        p = params.stages[0].p
        phi = build_phi_stage(bundle, params, 1, n)
        (kl, kr), (dl, dr) = build_k_interval(bundle, n, p), build_k_interval(bundle, n - 1, p)
        # the centred stack in G_(p+1), which lies past the horizon
        l, r = bundle.atlas.interval_of(Code(p + 1))
        mid, half = (l + r) / 2, stack_rel(n) * (r - l) / 2
        ends = [eval_pl(phi, x) for x in (kl, dl, dr, kr)]
        assert ends == [mid - half, mid + half, mid - half, mid + half]
        build_main_nds(bundle, params)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fold_at_the_horizon_is_exact(self, n):
        bundle = build_limit_map(build_atlas(5, Fraction(1, 2), 4))
        assert evaluate_e(Block("00001")) == bundle.exact_horizon
        self._check_fold_is_exact(bundle, Block("00001"), n)

    @pytest.mark.parametrize("depth, p", PAST_THE_HORIZON)
    def test_fold_past_the_horizon_is_exact(self, depth, p):
        bundle = build_limit_map(build_atlas(depth, Fraction(1, 2), 4))
        assert bundle.exact_horizon < p < bundle.frontier_code.index
        self._check_fold_is_exact(bundle, Block(int_to_word(p, depth)), 1)

    def test_frontier_visit_is_refused(self):
        bundle = build_limit_map(build_atlas(1, Fraction(1, 2), 4))
        params = StageParams((StageSpec(Block("1"), 1),))
        assert params.stages[0].p == 2 ** bundle.atlas.depth - 1
        for build in (build_phi_stage, build_psi_stage):
            with pytest.raises(ValueError, match="frontier"):
                build(bundle, params, 1, 1)


class TestPrograms:
    def test_g1inf_shape(self, bundle, params):
        prog = build_g1inf(bundle, params, 1, 1)
        assert prog.tail_map is None  # it cycles
        assert len(prog.stages[0].maps) == 2
        lam = build_lambda(bundle, params.stages[0].block)
        elem = compose(build_phi_stage(bundle, params, 1, 1), lam)
        assert prog.map_at(1) == elem
        assert prog.map_at(3) == elem  # period 2^k = 2

    def test_g1inf_interval_iterates(self, bundle, params):
        # within one period the stack interval advances one step per time
        prog = build_g1inf(bundle, params, 2, 2)
        spec = params.stages[1]
        K = build_k_interval(bundle, 2, spec.p)
        eta = eta_step(bundle, spec.block)
        cur_prog, cur_eta = K, K
        for m in range(1, 2 ** spec.k):
            cur_prog = interval_image(prog.map_at(m), *cur_prog)
            cur_eta = interval_image(eta, *cur_eta)
            assert cur_prog == cur_eta

    def test_main_block_lengths(self, bundle, params):
        prog = build_main_nds(bundle, params)
        assert [len(s.maps) for s in prog.stages] == [
            spec.a * 2 ** spec.k + 1 for spec in params.stages
        ]

    def test_main_last_map_is_collapse(self, bundle, params):
        prog = build_main_nds(bundle, params)
        b1 = len(prog.stages[0].maps)
        assert prog.map_at(b1) == build_psi_stage(bundle, params, 1, 1)

    def test_main_tail_is_limit(self, bundle, params):
        prog = build_main_nds(bundle, params)
        assert prog.map_at(prog.stage_length + 5) == bundle.f

    def test_every_map_surjective(self, bundle, params):
        prog = build_main_nds(bundle, params)
        for s in prog.stages:
            for m in {id(m): m for m in s.maps}.values():
                assert is_surjective(m)

    def test_main_stage_record(self, bundle, params):
        # meta is the record build-nds writes; the image hull is a typed field
        for s in build_main_nds(bundle, params).stages:
            assert all(type(v) in (int, str) for v in s.meta.values())
            k, p = s.meta["k"], s.meta["p"]
            assert s.image_hull == bundle.atlas.hull(k, (p + 1) % 2 ** k)

    def test_lemma_stage_record(self):
        for s in lemma_nds(num_stages=3).stages:
            assert all(type(v) in (int, str) for v in s.meta.values())

    def test_bundle_supplies_frontier_and_horizon(self, bundle, params):
        # every builder on an atlas copies both from its bundle
        for prog in (
            build_main_nds(bundle, params),
            build_g1inf(bundle, params, 1, 1),
            autonomous_program(bundle.f, bundle),
        ):
            assert prog.frontier == tuple(bundle.frontier_intervals())
            assert prog.exact_horizon == bundle.exact_horizon == 2 ** 7
        plain = autonomous_program(bundle.f)
        assert (plain.frontier, plain.exact_horizon) == ((), None)

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            StageParams(stages=(StageSpec(Block("11"), 3), StageSpec(Block("1"), 5)))
        with pytest.raises(ValueError):
            StageParams(stages=())

    @pytest.mark.parametrize("a", [3.9, True, "3", None])
    def test_stage_count_must_be_an_integer(self, a):
        # ``True`` would pass as 1, and 3.9 would pass the ``>= 1`` test
        with pytest.raises(TypeError):
            StageSpec(Block("1"), a)

    def test_stack_widths(self):
        # strictly inside each blown interval, increasing to 1, and the
        # level-1 stack longer than a third of its interval
        rels = [stack_rel(n) for n in range(0, 40)]
        assert rels[1] > Fraction(1, 3)
        assert all(0 < a < b < 1 for a, b in zip(rels, rels[1:]))


class TestMiddleCylinders:
    @pytest.mark.parametrize("word", ["0", "1", "01", "10", "011", "1111", "11111111"])
    def test_collars_match_the_image_table(self, bundle, word):
        # the collar widths read the limit map at the hull ends and at the
        # neighbours' ends; the table of interval images must give the same
        # collar points ("11111111" starts with the frontier code)
        atlas = bundle.atlas
        images = oracles.limit_images(bundle)
        codes = cylinder_codes(atlas, word)
        k = len(word)
        image_hull = oracles.hull_table(atlas)[(k, (evaluate_e(Block(word)) + 1) % 2 ** k)]
        lam = build_lambda(bundle, Block(word))
        i0, i1 = position(codes[0], atlas.depth), position(codes[-1], atlas.depth)
        jl, jr = atlas.intervals[i0][0], atlas.intervals[i1][1]
        collars = []
        if jl > 0:
            u = atlas.intervals[i0 - 1][1]
            inner, outer = images[codes[0]][0], images[atlas.codes[i0 - 1]][1]
            collars.append(jl - _collar_width((u, jl), image_hull, inner, outer))
        if jr < 1:
            w = atlas.intervals[i1 + 1][0]
            inner, outer = images[codes[-1]][1], images[atlas.codes[i1 + 1]][0]
            collars.append(jr + _collar_width((jr, w), image_hull, inner, outer))
        assert collars
        for x in collars:
            assert x in lam.xs and eval_pl(lam, x) == x

    def test_two_collar_lambda_permutes_and_involutes(self, bundle):
        # a cylinder whose hull touches neither endpoint needs collars on
        # both sides
        lam = build_lambda(bundle, Block("01"))
        assert is_surjective(lam)
        for c in cylinder_codes(bundle.atlas, "01"):
            g = bundle.atlas.interval_of(c)
            once = interval_image(lam, *g)
            assert once == bundle.atlas.interval_of(tau(Block("01"), c))
            assert interval_image(lam, *once) == g

    def test_mixed_stage_envelopes_hold(self, bundle):
        from ndslab.analysis import convergence_report

        params = StageParams(
            stages=(StageSpec(Block("0"), 2), StageSpec(Block("01"), 3))
        )
        prog = build_main_nds(bundle, params)
        rows, strict = convergence_report(bundle, prog)
        assert strict
        assert all(r.within_bound for r in rows)

    def test_eta_cycle_for_carry_free_block(self, bundle):
        eta = eta_step(bundle, Block("01"))
        g = bundle.atlas.interval_of(canonicalize("01", 0))
        cur = g
        for _ in range(4):
            cur = interval_image(eta, *cur)
        assert cur == g


class TestFoldStructure:
    def _laps_within(self, f, lo, hi):
        # monotone pieces of f restricted to [lo, hi]
        signs = []
        for x0, x1, y0, y1 in zip(f.xs, f.xs[1:], f.ys, f.ys[1:]):
            if x1 <= lo or x0 >= hi:
                continue
            s = (y1 - y0) and (1 if y1 > y0 else -1)
            if s and (not signs or signs[-1] != s):
                signs.append(s)
        return max(len(signs), 1)

    def test_probe_folds_predecessor_three_ways(self, bundle, params):
        # the fold acts on the stack interval that the reversing step sends
        # onto the visit point: the predecessor's stack, one fold per 2*2^k
        prog = build_g1inf(bundle, params, 1, 1)
        spec = params.stages[0]
        pred = build_k_interval(bundle, 1, spec.p - 2 ** spec.k)
        # the predecessor returns to itself after 2 * 2^k steps and is folded
        # again by the step right after that
        for m in (1, 2, 4, 5, 8):
            comp = compose_chain([prog.map_at(t) for t in range(1, m + 1)])
            expected = 3 if m <= 2 * 2 ** spec.k else 9
            assert self._laps_within(comp, *pred) == expected, m

    def test_visit_point_stack_rides_unfolded_one_period(self, bundle, params):
        prog = build_g1inf(bundle, params, 1, 1)
        spec = params.stages[0]
        K = build_k_interval(bundle, 1, spec.p)
        comp = compose_chain([prog.map_at(t) for t in range(1, 2 ** spec.k + 1)])
        assert interval_image(comp, *K) == K
        assert self._laps_within(comp, *K) == 1


class TestCentreOrbit:
    def test_centres_ride_centres(self, bundle, params):
        # interval centres are invariant under every map of the family, so a
        # collapsed point keeps tracing midpoints of blown intervals
        prog = build_main_nds(bundle, params)
        atlas = bundle.atlas
        centres = {(l + r) / 2 for l, r in atlas.intervals}
        x = sum(bundle.atlas.interval_of(ZERO)) / 2
        for t in range(1, 30):
            x = eval_pl(prog.map_at(t), x)
            assert x in centres, t


class TestTimes:
    def test_r_times_first_stage(self, params):
        assert times_R(params, 1, 4) == [2, 4, 6, 8]

    def test_r_spacing(self, params):
        for i in (1, 2, 3):
            r = times_R(params, i, 6)
            step = 2 ** params.stages[i - 1].k
            assert all(b - a == step for a, b in zip(r, r[1:]))

    def test_s_times(self, params):
        assert times_S(params, 3) == [2, 4, 6]
        assert times_S(params, 8) == [2, 4, 6, 10, 14, 18, 22, 26]
        assert times_S(params, 15)[-1] == 82

    def test_s_strictly_increasing(self, params):
        s = times_S(params, 15)
        assert all(a < b for a, b in zip(s, s[1:]))

    def test_s_count_guard(self, params):
        with pytest.raises(ValueError):
            times_S(params, 16)
