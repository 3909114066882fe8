"""The benchmark's three workloads: seeded inputs, measured passes, output facts.

Each workload has a set-up step that builds its inputs from the seed, and a
pass that makes the workload's public ``ndslab`` calls one after another
(closed loop, one caller).  Every call is timed on its own and its output is
reduced to exact, JSON-comparable facts, which are checked against
``references.json``.

The library is always reached through module attributes (``analysis.x``,
not ``from ndslab.analysis import x``), so that the traced run's wrappers
see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

from ndslab import acceptance, analysis, blowup, constructions, plmap, symbolic

WORKLOADS = ("entropy-main", "greedy-tent", "orbits-main")

# The seed permutes the battery's frozen inputs: candidate orders and the
# order of the 7d pair draws.  A permutation is one of this many recorded
# variants (seed modulo it), variant 0 being the battery's own order, so that
# every greedy output has a recorded reference.  The 7d draws themselves stay
# the battery's: with a new multiset of 1,000 pairs per seed, wall_s of
# orbits-main spread 3% over five seeds, with permuted draws 1.3%.
ORDER_VARIANTS = 16

# criterion 7d draws its pairs with random.Random(11)
LY_DRAW_SEED = 11

# Workloads whose outputs do not depend on the order of their inputs (the LY
# verdicts are keyed by pair); their reference is recorded once, as variant 0.
ORDER_FREE = ("orbits-main",)


@dataclass(frozen=True)
class Size:
    """Workload scale.  ``FULL`` is the benchmark; ``SMOKE`` is for self-tests."""

    depth: int = 12
    tent_bits: int = 12
    ly_pairs: int = 1000
    distality_steps: int = 2 ** 10
    candidate_stride: int = 1


FULL = Size()
SMOKE = Size(depth=6, tent_bits=6, ly_pairs=20, distality_steps=32, candidate_stride=25)


def order_variant(seed: int) -> int:
    return seed % ORDER_VARIANTS


def seeded_order(items: list, seed: int) -> list:
    """The battery's order for variant 0, else a shuffle fixed by the variant."""
    items = list(items)
    v = order_variant(seed)
    if v:
        random.Random(v).shuffle(items)
    return items


def digest(obj: Any) -> str:
    """Short stable digest of a JSON-serialisable value (rationals as "p/q")."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up


def build_fixture(depth: int):
    """Atlas, limit map and default blow-up program: the battery's main fixture."""
    atlas = blowup.build_atlas(depth, acceptance.DEFAULT_RHO, acceptance.DEFAULT_BASE)
    bundle = blowup.build_limit_map(atlas)
    params = constructions.StageParams()
    return bundle, params, constructions.build_main_nds(bundle, params)


def ly_groups(bundle) -> list[list[Fraction]]:
    """The 7d start points: ten grid points in each blown interval of depth <= 2."""
    atlas = bundle.atlas
    return [
        acceptance.grid_in(*atlas.interval_of(c), 10) for c in atlas.codes if c.depth <= 2
    ]


def ly_draws(n_groups: int, group_size: int, count: int):
    """Index pairs ((gi, xi), (gj, yj)) drawn exactly as criterion 7d draws them."""
    rng = random.Random(LY_DRAW_SEED)
    out = []
    while len(out) < count:
        gi, gj = rng.randrange(n_groups), rng.randrange(n_groups)
        if gi == gj:
            continue
        xi, yj = rng.randrange(group_size), rng.randrange(group_size)
        out.append(((gi, xi), (gj, yj)))
    return out


def setup(workload: str, seed: int, size: Size = FULL) -> dict:
    """Build a workload's inputs from its seed; the library sees only these."""
    if workload == "greedy-tent":
        grid = [Fraction(j, 2 ** size.tent_bits) for j in range(2 ** size.tent_bits + 1)]
        grid = seeded_order(grid, seed)
        return {
            "tent": acceptance.autonomous_program(plmap.tent_map()),
            "identity": acceptance.autonomous_program(plmap.identity_map()),
            "grid": grid,
            "identity_grid": grid[:: max(1, len(grid) // 64)],
        }
    bundle, params, program = build_fixture(size.depth)
    inputs = {"bundle": bundle, "program": program}
    if workload == "entropy-main":
        cands = acceptance.main_candidates(bundle)[:: size.candidate_stride]
        inputs.update(
            candidates=seeded_order(cands, seed),
            times=constructions.times_S(params, 8),
            epsilon=acceptance.epsilon_zero(bundle) / 2,
        )
    elif workload == "orbits-main":
        groups = ly_groups(bundle)
        inputs.update(
            groups=groups,
            draws=seeded_order(ly_draws(len(groups), len(groups[0]), size.ly_pairs), seed),
            horizon=program.stage_length,
            delta=acceptance.epsilon_zero(bundle) / 4,
            code_pairs=list(combinations(symbolic.all_codes(4), 2)),
            distality_steps=min(size.distality_steps, bundle.exact_horizon),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def map_pieces(inputs: dict) -> int:
    """Piece count over the distinct maps of the workload's programs."""
    programs = [inputs[k] for k in ("program", "tent", "identity") if k in inputs]
    maps = {}
    for prog in programs:
        for stage in prog.stages:
            for m in stage.meta.get("distinct_maps") or stage.maps:
                maps[id(m)] = m
    return sum(m.piece_count for m in maps.values())


# ---------------------------------------------------------------------------
# measured passes


@dataclass
class Op:
    """One public library call of a pass: its reference key, timing, facts."""

    key: str
    start: float      # time.perf_counter() when the call began
    seconds: float
    facts: Any


def _timed(ops: list[Op], key: str, fn: Callable, *args, facts: Callable) -> Any:
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    ops.append(Op(key, t0, seconds, facts(result)))
    return result


def _separation_facts(rep) -> dict:
    return {
        "cardinality": rep.cardinality,
        "estimate": repr(rep.entropy_estimate),
        "flagged": rep.flagged,
        "witnesses": digest([str(w) for w in rep.witnesses]),
    }


def _table_facts(table) -> dict:
    return {
        "rows": [[e, n, c, repr(est)] for e, n, c, est in table.rows],
        "headline": repr(table.headline),
    }


def _verdict_facts(v) -> str:
    return v.classification[0] + ":" + digest([str(v.tail_min), str(v.tail_max), v.horizon])


def _distality_facts(rows) -> dict:
    return {
        "rows": len(rows),
        "ok": sum(r.ok for r in rows),
        "digest": digest([r.to_json_dict() for r in rows]),
    }


def ly_key(draw) -> str:
    """Reference key of a drawn pair; verdicts are symmetric in the pair."""
    a, b = sorted(draw)
    return f"{a[0]}.{a[1]}-{b[0]}.{b[1]}"


def run_pass(workload: str, inputs: dict) -> list[Op]:
    """One pass of the workload's public calls, each timed and reduced to facts."""
    ops: list[Op] = []
    if workload == "entropy-main":
        prog, cands = inputs["program"], inputs["candidates"]
        times, eps = inputs["times"], inputs["epsilon"]
        reps = {}
        for n in (3, 8):
            reps[n] = _timed(ops, f"greedy_n{n}", analysis.greedy_separated,
                             prog, cands, times, n, eps, facts=_separation_facts)
        for n in (3, 8):
            _timed(ops, f"verify_n{n}", analysis.verify_separated, prog, reps[n], facts=bool)
        _timed(ops, "entropy", analysis.entropy_estimate,
               prog, times, [eps], [1, 3, 8], cands, facts=_table_facts)
    elif workload == "greedy-tent":
        _timed(ops, "tent", analysis.entropy_estimate, inputs["tent"], list(range(1, 11)),
               [Fraction(1, 6)], [10], inputs["grid"], facts=_table_facts)
        _timed(ops, "identity", analysis.entropy_estimate, inputs["identity"], [1, 2, 3],
               [Fraction(1)], [3], inputs["identity_grid"], facts=_table_facts)
    elif workload == "orbits-main":
        prog, groups = inputs["program"], inputs["groups"]
        for draw in inputs["draws"]:
            (gi, xi), (gj, yj) = draw
            _timed(ops, ly_key(draw), analysis.ly_classify, prog, groups[gi][xi],
                   groups[gj][yj], inputs["horizon"], inputs["delta"], facts=_verdict_facts)
        _timed(ops, "distality", analysis.distality_report, inputs["bundle"], prog,
               inputs["code_pairs"], inputs["distality_steps"], facts=_distality_facts)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def latency_ops(workload: str, ops: list[Op]) -> list[Op]:
    """The calls whose latency is ``op_p50_ms``, chosen by key, not by rank.

    On orbits-main these are the ``ly_classify`` calls.  The other workloads
    make one pass of a few unlike calls, so there it is one named call: the
    ``entropy_estimate`` table of entropy-main, the tent oracle of greedy-tent.
    """
    if workload == "orbits-main":
        return [op for op in ops if op.key != "distality"]
    key = {"entropy-main": "entropy", "greedy-tent": "tent"}[workload]
    return [op for op in ops if op.key == key]


# ---------------------------------------------------------------------------
# reference check


def expected_facts(references: dict, workload: str, seed: int) -> dict:
    """The reference facts keyed by op key for this workload and seed."""
    variant = 0 if workload in ORDER_FREE else order_variant(seed)
    return references[workload][str(variant)]


def count_mismatches(ops: list[Op], expected: dict) -> int:
    """Ops whose facts differ from the reference (a missing reference counts)."""
    return sum(1 for op in ops if expected.get(op.key, object()) != op.facts)
