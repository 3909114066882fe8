"""Program evaluation: map lookup and trajectories."""

from fractions import Fraction

import pytest

from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import (
    BlockProgram,
    Stage,
    StageParams,
    build_main_nds,
    lemma_nds,
    lemma_phi,
    lemma_psi,
)
from ndslab.dynamics import code_rel_trajectory, trajectory
from ndslab.symbolic import all_codes, canonicalize


@pytest.fixture(scope="module")
def lemma_prog():
    return lemma_nds(3)


@pytest.fixture(scope="module")
def bundle():
    return build_limit_map(build_atlas(6, Fraction(1, 2), 4))


@pytest.fixture(scope="module")
def main_prog(bundle):
    return build_main_nds(bundle, StageParams())


class TestMapAt:
    def test_lemma_schedule(self, lemma_prog):
        assert lemma_prog.map_at(1) == lemma_phi(1)
        assert lemma_prog.map_at(2) == lemma_psi(1)

    def test_tail(self, lemma_prog):
        t = lemma_prog.stage_length
        assert lemma_prog.map_at(t + 1) == lemma_psi(3)
        assert lemma_prog.map_at(t + 999) == lemma_psi(3)

    def test_main_block_end(self, main_prog):
        b1 = len(main_prog.stages[0].maps)
        assert main_prog.map_at(b1) == main_prog.stages[0].maps[-1]

    def test_matches_flat_schedule(self, lemma_prog):
        flat = [m for s in lemma_prog.stages for m in s.maps]
        cycled = BlockProgram(stages=lemma_prog.stages)
        for t in range(1, 3 * len(flat) + 1):
            i = t - 1
            assert cycled.map_at(t) is flat[i % len(flat)]
            expected = flat[i] if i < len(flat) else lemma_prog.tail_map
            assert lemma_prog.map_at(t) is expected

    def test_time_starts_at_one(self, lemma_prog):
        with pytest.raises(ValueError):
            lemma_prog.map_at(0)



class TestTrajectory:
    def test_lemma_collapse_to_half(self, lemma_prog):
        # any stack point is flattened to 1/2 at the first block end and stays
        traj = trajectory(lemma_prog, Fraction(1, 2), 4)
        assert set(traj.values) == {Fraction(1, 2)}
        traj2 = trajectory(lemma_prog, Fraction(2, 5), 6)
        assert traj2.values[2] == Fraction(1, 2)       # after phi_1, psi_1
        assert all(v == Fraction(1, 2) for v in traj2.values[2:])

    def test_identity_region_fixed(self, lemma_prog):
        traj = trajectory(lemma_prog, Fraction(0), 10)
        assert set(traj.values) == {Fraction(0)}

    def test_determinism(self, main_prog):
        a = trajectory(main_prog, Fraction(1, 3), 30)
        b = trajectory(main_prog, Fraction(1, 3), 30)
        assert a == b

    def test_flags_monotone(self, main_prog):
        # the flag of time t is set once an earlier value has met the frontier
        for x, first in ((Fraction(1, 3), None), (main_prog.frontier[0][0], 1)):
            traj = trajectory(main_prog, x, 40)
            hit = [any(l <= v <= r for l, r in main_prog.frontier) for v in traj.values]
            assert [fl for *_, fl in traj.rows()] == [any(hit[:t]) for t in range(41)]
            assert traj.tainted_from == first

    def test_frontier_taints(self, bundle, main_prog):
        l, r = bundle.atlas.interval_of(bundle.frontier_code)
        traj = trajectory(main_prog, (l + r) / 2, 3)
        assert traj.tainted_from == 1 and traj.tainted
        assert [fl for *_, fl in traj.rows()] == [False, True, True, True]

    def test_rows_format(self, lemma_prog):
        rows = trajectory(lemma_prog, Fraction(1, 3), 2).rows()
        assert rows[0] == (0, 1, 3, False)
        assert len(rows) == 3


class TestCodeRelCoordinates:
    def test_matches_absolute_dynamics(self, bundle, main_prog):
        for c in all_codes(2):
            seq = code_rel_trajectory(bundle, main_prog, (c, Fraction(1, 3)), 8)
            x = bundle.point_at(c, Fraction(1, 3))
            traj = trajectory(main_prog, x, 8)
            assert len(seq) == 9
            for (code_str, rel), v in zip(seq, traj.values):
                block, tail = code_str.split("|")
                l, r = bundle.atlas.interval_of(canonicalize(block, int(tail)))
                assert l + rel * (r - l) == v

    def test_tainted_orbit_gives_none(self, bundle, main_prog):
        start = (bundle.frontier_code, Fraction(1, 2))
        assert trajectory(main_prog, bundle.point_at(*start), 3).tainted
        assert code_rel_trajectory(bundle, main_prog, start, 3) is None
