"""Controls: criteria 7d and 7e must reject a map with positive entropy.

Each battery scan runs with its own recipe and parameters on the depth-12
main bundle, but on a control program that applies one map at every step:
85 steps per stage, the main program's stage length, so ``ly_scan`` keeps
7d's horizon.  The tent map has entropy log 2, so by Blanchard, Glasner,
Kolyada & Maass (2002, "On Li-Yorke pairs") it has Li-Yorke pairs, and it
expands every interval, so no gap floor survives.  The identity (and, for
the LY scan, the limit map f_D) must pass.  The bounds leave room under the
counts measured on the tent: 404 LY-candidates of 1,000 pairs, and 492 of
496 pairs below their floor.

Criteria 6 and 7b do not reject f_D (see the README), so a proxy beside the
battery is checked instead: the growth of the separated counts at criterion
8's epsilon, which stalls on f_D and not on the tent.
"""

from fractions import Fraction

import pytest

from ndslab.acceptance import (
    DEFAULT_BASE, DEFAULT_RHO, autonomous_program, distality_scan, entropy_inputs, ly_scan,
)
from ndslab.analysis import entropy_estimate
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import BlockProgram, Stage
from ndslab.plmap import identity_map, tent_map

STAGE_LENGTH = 85  # the default main program's stage length: 7 + 21 + 57


@pytest.fixture(scope="module")
def bundle():
    return build_limit_map(build_atlas(12, DEFAULT_RHO, DEFAULT_BASE))


def control(f) -> BlockProgram:
    return BlockProgram(stages=(Stage("control", (f,) * STAGE_LENGTH),))


def test_ly_scan_finds_the_tent(bundle):
    _, counts = ly_scan(bundle, control(tent_map()))
    assert sum(counts.values()) == 1000
    assert counts["LY-candidate"] >= 100


@pytest.mark.parametrize("which", ["identity", "f_D"])
def test_ly_scan_passes_the_identity_and_the_limit_map(bundle, which):
    f = identity_map() if which == "identity" else bundle.f
    _, counts = ly_scan(bundle, control(f))
    assert counts["LY-candidate"] == 0


def test_distality_scan_rejects_the_tent(bundle):
    _, rows = distality_scan(bundle, control(tent_map()))
    assert len(rows) == 496
    assert sum(not r.ok for r in rows) >= 400


def test_distality_scan_passes_the_identity(bundle):
    _, rows = distality_scan(bundle, control(identity_map()))
    assert len(rows) == 496
    assert all(r.ok for r in rows)


def count_quotients(f, n_max=7):
    """c(n)/c(n-1) for n = 2..n_max, c(n) the separated count of f's orbits."""
    grid, eps = entropy_inputs()
    ns = list(range(1, n_max + 1))
    table = entropy_estimate(autonomous_program(f), ns, [eps], ns, grid[::2])
    counts = [card for _, _, card, _ in table.rows]
    return [Fraction(b, a) for a, b in zip(counts, counts[1:])]


def test_count_quotients_tell_the_limit_map_from_the_tent(bundle):
    # every other point of criterion 8's grid (2,049 points) and n <= 7: the
    # tent's counts 6, 11, 20, 36, 65, 117, 211 stay far below the grid size
    # and grow by 1.80-1.83 a step (the full grid to n = 10 takes several
    # seconds, and its n = 9 quotient dips to 1.44), while f_D's counts
    # 6, 9, 12, 14, 16, 19, 20 grow by 1.05-1.19 from n = 5 on
    f_d = count_quotients(bundle.f)
    assert all(q <= Fraction(5, 4) for q in f_d[3:])  # from n = 5 on
    assert all(q > Fraction(7, 5) for q in count_quotients(tent_map()))
