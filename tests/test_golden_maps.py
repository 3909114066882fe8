"""Golden digests of the limit map and of every distinct main-program stage map.

Each digest is the SHA-256 of ``json.dumps(m.to_json_dict(), sort_keys=True)``
at depths 6 and 9 under the default atlas and stage parameters.  They were
recorded from the all-``Fraction`` map construction, so a faster kernel that
changes a single breakpoint or value of any of these maps fails here.
"""

import hashlib
import json

import pytest

from ndslab.acceptance import DEFAULT_BASE, DEFAULT_RHO
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import StageParams, build_main_nds

GOLDEN = {
    6: {
        "limit": "37ebc0567d94589d1fef5559f785be78c60bff0c0ba3adf8341212452e26d184",
        "B1": (
            "9ebe17f8beab7fe3e39f30cc5188b4176312d11743bcc1f38521a6b5d49664e5",
            "7bd1c54e1f9b083bde35972e7fbe851384ad72b9be3d27b81a833a028cb455e3",
            "ae0984db2eead39c50d4183fa7224a235a9415f623b30c374724143d82646c96",
        ),
        "B2": (
            "ea75684a22b3566188194fb3d4976337b2fd0e1520f9288c45716f304861b36a",
            "c71dc4d593cee9fc3b8bca706b7a88b2e1d582faa7380b067e909e1cde52afa0",
            "db85ba6d6cdc87bf09b8461308ee9629b5b38f010230343a82baed85b1347f0b",
        ),
        "B3": (
            "d75eab57e3d723bf9aed6c7602b3a80adef5ed43186109f955aca5150581b846",
            "1b3add89e45f39fed528ed512da3a257b80aa4ccd24b6f9ab077def86aa50b53",
            "b7cce91ae3364292e5f00cfc6120532525c21849f4d8c547211e896fc451b660",
        ),
    },
    9: {
        "limit": "ac4231fb756372d76921f4bae3b5be5c44cf6f238c75ab5562a07dbc978731ac",
        "B1": (
            "ee14342f39780a8cf677e8ed0be6bddf9c049e7edd5178cd53c5b9eccf4cc96e",
            "137f5d2fc548f6eaa7c8eb7bb9828e97dd41450f20e11679075226b6d11d4e6e",
            "554c20dd2f649fa51980b8afd19203229170113390c3fbadc8666df6295f75a6",
        ),
        "B2": (
            "f95dc699c033cb310b87b1c5a4e320fd7b9b4ca0fd7990c7f105b789ea4cb020",
            "de5d90d85b134cd7a43aa3a783a23a219c7633b608d66df2f76582fa29c24421",
            "868262628f4fe5330f90244ecf9d982c7ef1ab1defe628cf543ba4e0db5810eb",
        ),
        "B3": (
            "e1faae24edff0b9685df7f56096a6a832da2c3758cf76eb5f1dcb90aa007a565",
            "81012718ef1db96421519413d06f3b4561a0d479a868a2d0015bcbc1969cfbea",
            "3950cb38f84a608eab773a55a76df0f299f2032151563e988cc569dd78ed09f2",
        ),
    },
}


def _digest(m) -> str:
    return hashlib.sha256(json.dumps(m.to_json_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("depth", sorted(GOLDEN))
def test_limit_and_stage_maps_match_golden_digests(depth):
    bundle = build_limit_map(build_atlas(depth, DEFAULT_RHO, DEFAULT_BASE))
    program = build_main_nds(bundle, StageParams())
    got = {"limit": _digest(bundle.f)}
    for stage in program.stages:
        # (elem, eta, psi): the fold step, the plain step and the collapse
        got[stage.label] = tuple(_digest(m) for m in stage.meta["distinct_maps"])
    assert got == GOLDEN[depth]
