"""Golden digests of the limit map, every distinct main-program stage map and
the lemma family's maps.

Each digest is the SHA-256 of ``json.dumps(m.to_json_dict(), sort_keys=True)``
at depths 6 and 9 under the default atlas and stage parameters.  They were
recorded from the all-``Fraction`` map construction, so a faster kernel that
changes a single breakpoint or value of any of these maps fails here.  The
lambda digests (depth 8) and the stage maps of blocks 0, 01 and 101 were
recorded while each map still listed its own points, before the stage maps
and lambda were spliced through one shared helper.  The digests on the
rho = 2/7, base 3 atlas were recorded while the layout still summed
``Fraction``s and the limit map and lambda still built one ``Code`` per
interval.  The lemma digests were recorded while K_n and the repeat counts were still
callable parameters, so they pin the fixed formulas to those old defaults.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ndslab.acceptance import DEFAULT_BASE, DEFAULT_RHO
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import (
    StageParams,
    StageSpec,
    build_lambda,
    build_main_nds,
    lemma_nds,
    lemma_phi,
    lemma_psi,
)
from ndslab.symbolic import Block

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


# lambda at depth 8 for hulls that start at 0 (blocks 0, 00), end at 1 (blocks
# 1, 11111111) or carry a collar on both sides (blocks 01, 10, 0110)
LAMBDA = {
    "0": "2050b1289f8d999789de8b1c65375563de18a6cf65ed90fba68fc05fbc1cb8d5",
    "1": "58d2b3f2a439b75863a271c6aa19e3620a4ba59249308520eca5f674db451c9c",
    "00": "30614f9e622828994ebb69c7d4c4faee43650a05ad9c5072671e872efd5023b2",
    "01": "751863c410d87bfe49d35b2b37b2f85b686ce6a1d569ecacb8870771645360c6",
    "10": "36394b21f9e57d9d047e164ff685d8668e923e47d5c097770d48b624929a09b2",
    "0110": "3bd69d7b955289e272cf1883f0d437833e28c3862d4797d0628dd53d0551ac9d",
    "11111111": "dab3b3957b560d25fd99dad960118422a511d9bce9f277ecad3aae3c68019713",
}
# the limit map and lambda for blocks 1 and 011 at depth 8 on an atlas with
# rho = 2/7 and base 3, whose layout denominator differs from the default's
OTHER_ATLAS = {
    "limit": "e40b416a16e2cc2871f85fdfd24f105f2545d60cec2a3a4cf8e3ff944f676eb5",
    "1": "71a88b48e76e66e00306528ec21cda28bdb20492f9afeb50f949a6793e4775b7",
    "011": "0102d2b5a63872f4c912c3b1785ab9dd3e5bfe3793c72915c6ba99d59229859c",
}
# (elem, eta, psi) of each stage of OTHER_STAGES, whose lambdas include hulls
# that start at 0 or carry two collars
OTHER_STAGES = StageParams(
    (StageSpec(Block("0"), 2), StageSpec(Block("01"), 2), StageSpec(Block("101"), 2))
)
GOLDEN_OTHER_STAGES = {
    6: {
        "B1": (
            "97a7c704b78b56f3dcbfce668ee329b49da5fb5a1707ee182407e61268dbaf1c",
            "f056307cf3470b6797c0bda66a275a1ea2972526d5c2507d1cda625e9f0c9231",
            "915999cd513a9d5ff5427e947c8e70b262eb9f4594c663738b85168c4fbc0b5c",
        ),
        "B2": (
            "d5d0377594cf4627d39ba5f38a5abbb0b5d1fbf929d7d72286648f52651c063f",
            "3f6e808388f7b9ed95d3f40d9be98065fc181ea73c1b6ab46b5b631cad5a28e7",
            "f6c69c926cac147a3a22a55f48f5bd365006b776969cb5155bd29d7a9eb493fa",
        ),
        "B3": (
            "e5fbed9b8f150276084c82c878d66a83877ed00c22a49f84c14e9e6ec88c8fd7",
            "1e46d8068496ec24eab50bee3e366f345b51bd614ee439e6276623dedcbfe1ae",
            "61db50c306614f4fe417cad2fc31435079c3c058bd17322a94d5f331cb621a12",
        ),
    },
    9: {
        "B1": (
            "5579c09d3729d1b8f2502ca2a5feeafb7074082fbfd326667921919a6e4289cb",
            "536e6667b890580ba8473e78042828459628ea4b80279aaacaed7ff75bdf0a0d",
            "06c1e78c420615dc6509ae0698b1235b5b71438c5744643732ab1293b6c6812c",
        ),
        "B2": (
            "3876e84a2888bb0f6ab3765c2dc6a27abe784d505f13a61ea747d3b5eaa4ff5b",
            "be891b7f8f7f816f570ddd746c38159e33430188a17399bbd5797d8f2f68cdb4",
            "42b788f0630f1e492e1e88b694378fa56cc4fde9d4f85a348a5734f768671ec9",
        ),
        "B3": (
            "b34e6c994d2b88d96d4a6d90140a4f1809fdce62eed7cfb9ef48b82c1cbc771c",
            "24605fd97c8e66c352df112e713bd1cc2f7f635dd384688d3adb97e06c08c29d",
            "4cf07656d0c9682f9bf3422192ad336ac64070e38407cf5a08ed7cdb8efcd734",
        ),
    },
}

# (elem, eta, psi) of the one stage of block 10001 at depth 5, which visits
# p = 17, past the exact horizon 2^(D-1) = 16.  The stage builders once
# refused visits past that horizon; these digests were recorded from that
# construction with the exact horizon raised to 2^D, so only the refusal
# changed
PAST_HORIZON_STAGE = StageParams((StageSpec(Block("10001"), 1),))
GOLDEN_PAST_HORIZON = {
    "B1": (
        "60d3da28b691b02e6a1809e50ad069d21c2a224e88d2c7c3aec5f3fe446a70ff",
        "d9e66ee50e14fb0d32bf1814cb48ec299bbf02e5439e18f63de553589bcd2a6d",
        "8d3c73b5cdaf48860e307ca2312fce8538fd8e3797eb6b768e67777eeb1f9d72",
    ),
}


# lemma_phi(k) and lemma_psi(k) for k = 1..6
LEMMA_PHI = (
    "c223cbb654af7dff354190756a238d10d295c6b06573c37afb26766a800079bf",
    "6fcafa7981bd1a8ce6c2346995bfa59015e0133b3e4e0645e19c59f7c909be11",
    "5e99adb6d79d5783bc1f4ceea9288088a62b2ad75bce1079d9bb127df882af9f",
    "6ec2a45f615361a8213c73675cc77d9b6d02f27bd9c919a90187ea6e89a92b6a",
    "c72863b7ff1f7e16cc8210acff2d456a0b95baf30e8b9b83b9624ce23eee6a20",
    "b5c35b2565b6bfe4ea2a6ac0f62388642d47921cdae21ad9cf909dac02f20805",
)
LEMMA_PSI = (
    "902083210bcdb68333d43a0a96bc1ee05de326cbc0c7bb57740786ed69b389bd",
    "059353eb23fcd34cdd240a5b1116095a58979f22203271a37862bd9c7be6fe81",
    "865a831739b2e39d1fc62ba7da4b164b1adb072e88da2ba144c846d0510a3daf",
    "77819f85b88114e5c04003ffd8a3c77afbe8c3ef7fb2a322aa29aa83802fc88a",
    "85e4708db9deda790e0837e6e1ad3711f3ec99c7f5ae345a99adca37b99d9269",
    "9bb334e4ba6f3269ed1f6929d4a5f5231bdfcc7d6299ece9e1325bbe9fde4d90",
)
# each stage of lemma_nds(4, [2, 1, 3, 2]): the digest of its map list in
# time order, so the repeat counts are pinned along with the maps
LEMMA_PROGRAM = {
    "B1": "c23f3efc4edc18deada27fb230dd09254aa9e98c6db7c294bda0a8f04650c5c6",
    "B2": "64a769b54803fe1783cd3f9f3819e1ad5d6490cf1e817886ffce81d29db467f8",
    "B3": "b8364886f2362fbe78fcd8c5a9b8bb094bdbd78a8fc44b8c26753920f8236205",
    "B4": "82bcd3b98e531d33ccbe8c37c2bc9dcba2119b6c7f8957ec6f186af3028ba3db",
}


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _digest(m) -> str:
    return _sha(m.to_json_dict())


def _stage_digests(bundle, params) -> dict:
    # (elem, eta, psi): the fold step, the plain step and the collapse
    return {
        stage.label: tuple(_digest(m) for m in {id(m): m for m in stage.maps}.values())
        for stage in build_main_nds(bundle, params).stages
    }


@pytest.mark.parametrize("depth", sorted(GOLDEN))
def test_limit_and_stage_maps_match_golden_digests(depth):
    bundle = build_limit_map(build_atlas(depth, DEFAULT_RHO, DEFAULT_BASE))
    got = {"limit": _digest(bundle.f), **_stage_digests(bundle, StageParams())}
    assert got == GOLDEN[depth]


@pytest.mark.parametrize("depth", sorted(GOLDEN_OTHER_STAGES))
def test_other_stage_maps_match_golden_digests(depth):
    bundle = build_limit_map(build_atlas(depth, DEFAULT_RHO, DEFAULT_BASE))
    assert _stage_digests(bundle, OTHER_STAGES) == GOLDEN_OTHER_STAGES[depth]


def test_stage_past_the_horizon_matches_golden_digests():
    bundle = build_limit_map(build_atlas(5, DEFAULT_RHO, DEFAULT_BASE))
    assert _stage_digests(bundle, PAST_HORIZON_STAGE) == GOLDEN_PAST_HORIZON


def test_lambda_maps_match_golden_digests():
    bundle = build_limit_map(build_atlas(8, DEFAULT_RHO, DEFAULT_BASE))
    assert {w: _digest(build_lambda(bundle, Block(w))) for w in LAMBDA} == LAMBDA


def test_other_atlas_maps_match_golden_digests():
    bundle = build_limit_map(build_atlas(8, Fraction(2, 7), 3))
    got = {w: _digest(build_lambda(bundle, Block(w))) for w in ("1", "011")}
    assert {"limit": _digest(bundle.f), **got} == OTHER_ATLAS


def test_lemma_maps_match_golden_digests():
    assert tuple(_digest(lemma_phi(k)) for k in range(1, 7)) == LEMMA_PHI
    assert tuple(_digest(lemma_psi(k)) for k in range(1, 7)) == LEMMA_PSI


def test_lemma_program_matches_golden_digests():
    program = lemma_nds(num_stages=4, repeats=[2, 1, 3, 2])
    got = {s.label: _sha([m.to_json_dict() for m in s.maps]) for s in program.stages}
    assert got == LEMMA_PROGRAM
    assert _digest(program.tail_map) == LEMMA_PSI[3]
