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
"""

from fractions import Fraction

import pytest

from ndslab.acceptance import DEFAULT_BASE, DEFAULT_RHO, distality_scan, ly_scan
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
    # identity orbits are constant, so every horizon gives the same rows; at
    # the battery's 1,024 steps each pair's minimum is attained at every step
    # and is computed exactly at each, which takes ~5 s
    _, rows = distality_scan(bundle, control(identity_map()), steps=16)
    assert len(rows) == 496
    assert all(r.ok for r in rows)
