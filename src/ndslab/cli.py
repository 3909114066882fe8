"""Command-line front end: build artefacts, run scans, verify everything.

Exit codes: 0 when all requested checks pass, 1 when a check fails, 2 for
configuration errors.  All JSON artefacts are emitted with sorted keys and
fixed indentation, so identical configurations produce identical bytes.
Rationals serialise as "p/q" strings; floats appear only in entropy
estimates.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

import click

from . import acceptance
from .analysis import convergence_report, entropy_estimate
from .blowup import build_atlas, build_limit_map, exact_horizon
from .constructions import (
    BlockProgram,
    Stage,
    StageParams,
    StageSpec,
    build_main_nds,
    lemma_nds,
    times_R,
    times_S,
)
from .dynamics import trajectory
from .symbolic import Block
from .plmap import PLMap, graph_samples, tent_map, identity_map

EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

# The atlas has 2^(depth+1) intervals and each level about doubles the build:
# on a 2-core host the main program (atlas, limit map and stage maps, in one
# process after import, median of 5 runs) takes 0.15, 0.30, 0.58 and 1.25 s
# at depths 10 to 13.  Deeper atlases are refused before anything is built.
MAX_DEPTH = 13

# verify-lemma-lm follows every block of length j <= max-k over its 2^j-step
# orbit: on a 2-core host max-k 6 takes 0.05 s, 8 0.8 s, 9 3.9 s and 10 15.7 s,
# each step of k costing x4-5.  Larger values are refused before any work.
MAX_K = 10


def _dump_json(path: str, payload) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


class _Rational(click.ParamType):
    """A rational p/q that ``inside`` accepts, checked while parsing, so it fails before any work."""

    name = "p/q"

    def __init__(self, what: str, inside: Callable[[Fraction], bool]):
        self.what, self.inside = what, inside

    def convert(self, value, param, ctx) -> Fraction:
        try:
            v = Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            self.fail(f"bad rational {value!r}: {e}", param, ctx)
        if not self.inside(v):
            self.fail(f"{param.name} must {self.what}, not {value}", param, ctx)
        return v


_SCALE = _Rational("be positive", lambda v: v > 0)  # --epsilon and --delta


def _out_path(ctx, param, path: str) -> str:
    """-o is checked while parsing, so a bad path fails before any work."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise click.BadParameter(f"{path} is a directory, or its directory does not exist")
    return path


def _atlas_options(with_config: bool = True):
    """--depth/--rho/--base, checked while parsing, plus --config unless with_config is False."""
    depths, bases = click.IntRange(1, MAX_DEPTH), click.IntRange(min=2)
    options = [
        click.option("--depth", type=depths, default=acceptance.DEFAULT_DEPTH, show_default=True),
        click.option(
            "--rho",
            type=_Rational("lie strictly between 0 and 1", lambda v: 0 < v < 1),
            default=str(acceptance.DEFAULT_RHO),
            show_default=True,
        ),
        click.option("--base", type=bases, default=acceptance.DEFAULT_BASE, show_default=True),
    ]
    if with_config:
        options.append(
            click.option("--config", "config_path", default=None, help="JSON stage configuration")
        )

    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return decorate


# the keys a --config file may hold, per family, and per entry of "stages"
CONFIG_KEYS = {
    "lemma": {"num_stages", "repeats"},
    "main": {"stages"},
    "tent": set(),
    "identity": set(),
}
STAGE_KEYS = {"block", "a"}


def _check_keys(d, allowed: set, what: str) -> None:
    if not isinstance(d, dict):
        raise TypeError(f"{what} must be an object, not {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {what}; accepted: {sorted(allowed)}")


def _configure(
    family: str, config_path: str | None, depth: int, rho: Fraction, base: int, stage_times=None
):
    """Parse the options once into (program, bundle, times).

    The bundle is None outside the main family.  ``stage_times`` takes the
    main family's stage params to the times a command samples (R or S); it
    runs before any map is built, so that it can refuse a count the stages
    cannot hold, and its answer is the third element (None without it).
    The configuration file is checked against its family's keys here, and
    its values by the constructors, before any map is built; every error in
    it becomes a UsageError (exit code 2).
    """
    cfg = {}
    if config_path is not None:
        try:
            cfg = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise click.UsageError(f"cannot read config {config_path}: {e}")
    try:
        _check_keys(cfg, CONFIG_KEYS[family], f"the {family} family's config")
        if family == "tent":
            return acceptance.autonomous_program(tent_map()), None, None
        if family == "identity":
            return acceptance.autonomous_program(identity_map()), None, None
        if family == "lemma":
            return lemma_nds(cfg.get("num_stages", 5), cfg.get("repeats")), None, None
        params = StageParams()
        if "stages" in cfg:
            specs = []
            for s in cfg["stages"]:
                _check_keys(s, STAGE_KEYS, "a stage")
                specs.append(StageSpec(Block(s["block"]), s["a"]))
            params = StageParams(stages=tuple(specs))
        times = None if stage_times is None else stage_times(params)
        bundle = build_limit_map(build_atlas(depth, rho, base))
        return build_main_nds(bundle, params), bundle, times
    except (KeyError, TypeError, ValueError) as e:
        raise click.UsageError(f"bad configuration: {e!r}")


def _program_json(program: BlockProgram) -> dict:
    maps: list[PLMap] = []
    index: dict[int, int] = {}

    def ref(m: PLMap) -> int:
        if id(m) not in index:
            index[id(m)] = len(maps)
            maps.append(m)
        return index[id(m)]

    stages = [
        {
            "label": s.label,
            "maps": [ref(m) for m in s.maps],
            "meta": s.meta,
        }
        for s in program.stages
    ]
    return {
        "stages": stages,
        "tail_mode": "cycle" if program.tail_map is None else "repeat",
        "tail_map": None if program.tail_map is None else ref(program.tail_map),
        "map_table": [m.to_json_dict() for m in maps],
        "frontier": [[str(l), str(r)] for l, r in program.frontier],
        "exact_horizon": program.exact_horizon,
    }


def load_program(path: str) -> BlockProgram:
    """Read a program written by build-nds; a bad file is a UsageError."""
    try:
        d = json.loads(Path(path).read_text())
        maps = [PLMap.from_json_dict(m) for m in d["map_table"]]

        def pick(i: int) -> PLMap:
            if type(i) is not int or not 0 <= i < len(maps):
                raise IndexError(f"map index {i!r} is not an index of the map table")
            return maps[i]

        stages = tuple(
            Stage(s["label"], tuple(pick(i) for i in s["maps"]), dict(s.get("meta", {})))
            for s in d["stages"]
        )
        tail = None if d["tail_map"] is None else pick(d["tail_map"])
        if d["tail_mode"] != ("cycle" if tail is None else "repeat"):
            raise ValueError(f"tail mode {d['tail_mode']!r}: repeat needs a tail map, cycle none")
        frontier = tuple((Fraction(l), Fraction(r)) for l, r in d["frontier"])
        return BlockProgram(
            stages=stages,
            tail_map=tail,
            frontier=frontier,
            exact_horizon=d["exact_horizon"],
        )
    except (
        OSError, AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError
    ) as e:
        raise click.UsageError(f"cannot load program {path}: {e!r}")


def _check_times(spec: str | None, count: int, family: str) -> list[int] | None:
    """The times 1..n, or None for S and R, whose times need the stage params.

    Checked before any build: the spec, and the family and count of S and R.
    Without a spec the main family takes S and the others 1..count.
    """
    if spec is None:
        if family != "main" and count < 1:
            raise click.UsageError(f"--count {count}: need at least one time")
        spec = "S" if family == "main" else f"1..{count}"
    if spec in ("S", "R"):
        if family != "main":
            raise click.UsageError(
                f"times {spec} are defined by the main family's stages; "
                f"use 1..n for family {family!r}"
            )
        if count < 1:
            raise click.UsageError(f"times {spec!r}: need at least one time")
        return None
    n = spec[3:]
    if spec.startswith("1..") and n.isdecimal() and int(n) >= 1:
        return list(range(1, int(n) + 1))
    raise click.UsageError(f"unknown times spec {spec!r} (use R, S or 1..n with n >= 1)")


@click.group()
def main():
    """Exact nonautonomous interval-dynamics laboratory."""


@main.command("build-atlas")
@_atlas_options(with_config=False)
@click.option("-o", "out", default="atlas.json", show_default=True, callback=_out_path)
def build_atlas_cmd(depth, rho, base, out):
    """Write the blown-interval layout as JSON."""
    bundle = build_limit_map(build_atlas(depth, rho, base))
    payload = bundle.atlas.to_json_dict()
    payload["exact_horizon"] = bundle.exact_horizon
    payload["frontier_codes"] = [str(bundle.frontier_code)]
    _dump_json(out, payload)
    click.echo(f"atlas with {bundle.atlas.size} intervals -> {out}")


@main.command("build-nds")
@click.option("--family", type=click.Choice(["lemma", "main", "tent", "identity"]), required=True)
@_atlas_options()
@click.option("-o", "out", default="program.json", show_default=True, callback=_out_path)
def build_nds_cmd(family, depth, rho, base, config_path, out):
    """Build a block program and write its maps, tail and exactness bounds as JSON."""
    program, _, _ = _configure(family, config_path, depth, rho, base)
    _dump_json(out, _program_json(program))
    click.echo(
        f"{family} program: stages {[len(s.maps) for s in program.stages]} -> {out}"
    )


@main.command("trajectory")
@click.option("--program", "program_path", required=True)
@click.option(
    "--x", type=_Rational("lie in [0, 1]", lambda v: 0 <= v <= 1), required=True, help="start point"
)
@click.option("--steps", type=click.IntRange(min=0), required=True)
@click.option("-o", "out", default="trajectory.csv", show_default=True, callback=_out_path)
def trajectory_cmd(program_path, x, steps, out):
    """Iterate a point and write t,value_num,value_den,flag rows."""
    program = load_program(program_path)
    traj = trajectory(program, x, steps)
    lines = ["t,value_num,value_den,flag"]
    lines += [f"{t},{n},{d},{int(fl)}" for t, n, d, fl in traj.rows()]
    Path(out).write_text("\n".join(lines) + "\n")
    click.echo(f"{steps} steps -> {out} (tainted: {traj.tainted})")


@main.command("dump-map")
@click.option("--program", "program_path", required=True)
@click.option("--t", "time_index", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--grid", type=click.IntRange(min=1), default=256, show_default=True)
@click.option("-o", "out", default="map.csv", show_default=True, callback=_out_path)
def dump_map_cmd(program_path, time_index, grid, out):
    """Sample the map applied at time t on a uniform grid, as x,y CSV."""
    program = load_program(program_path)
    f = program.map_at(time_index)
    lines = ["x,y"] + [f"{x},{y}" for x, y in graph_samples(f, grid)]
    Path(out).write_text("\n".join(lines) + "\n")
    click.echo(f"map at t={time_index} on {grid + 1} grid points -> {out}")


@main.command("entropy")
@click.option("--family", type=click.Choice(["lemma", "main", "tent", "identity"]), required=True)
@_atlas_options()
@click.option("--times", "times_spec", help="R, S or 1..n; default S for main, else 1..count")
@click.option(
    "--epsilon", type=_SCALE, multiple=True, help="scales; default family-specific"
)
@click.option("--count", type=int, default=8, show_default=True, help="times to take")
@click.option("--min-headline", type=float, default=None, help="fail below this")
@click.option("-o", "out", default="entropy.json", show_default=True, callback=_out_path)
def entropy_cmd(family, depth, rho, base, config_path, times_spec, epsilon, count, min_headline, out):
    """Greedy separated-set entropy table for a program."""
    A = _check_times(times_spec, count, family)

    def stage_times(params: StageParams) -> list[int]:  # R, or S: the main family's default
        try:
            return times_R(params, 1, count) if times_spec == "R" else times_S(params, count)
        except ValueError as e:  # a count beyond the configured stages
            raise click.UsageError(f"times {times_spec or 'S'!r}: {e}")

    program, bundle, times = _configure(
        family, config_path, depth, rho, base, stage_times if A is None else None
    )
    A = A or times
    cands, eps_default = acceptance.entropy_inputs(bundle)
    epsilons = list(epsilon) or [eps_default]
    n_list = sorted({1, max(1, len(A) // 2), len(A)})
    table = entropy_estimate(program, A, epsilons, n_list, cands)
    _dump_json(out, table.to_json_dict())
    click.echo(f"headline {table.headline:.6g} -> {out}")
    if min_headline is not None and table.headline < min_headline:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("ly-scan")
@_atlas_options()
@click.option("--pairs", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--max-code-depth", type=int, default=2, show_default=True)
@click.option(
    "--delta", type=_SCALE, default=None, help="closeness scale; default eps0/4"
)
@click.option("--seed", type=int, default=11, show_default=True)
@click.option("-o", "out", default="ly_scan.json", show_default=True, callback=_out_path)
def ly_scan_cmd(depth, rho, base, config_path, pairs, max_code_depth, delta, seed, out):
    """Classify sampled pairs from distinct blown intervals; fail on LY."""
    # ly_scan checks m too, but only once the atlas is built
    if not 0 <= max_code_depth <= depth:
        raise click.UsageError(f"max code depth {max_code_depth} outside 0..{depth}")
    program, bundle, _ = _configure("main", config_path, depth, rho, base)
    dl, counts = acceptance.ly_scan(bundle, program, pairs, max_code_depth, delta, seed)
    payload = {
        "delta": str(dl),
        "horizon": program.stage_length,
        "pairs": pairs,
        "counts": counts,
    }
    _dump_json(out, payload)
    click.echo(f"{counts} -> {out}")
    if counts["LY-candidate"] > 0:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("settle-scan")
@_atlas_options()
@click.option("-o", "out", default="settle_scan.json", show_default=True, callback=_out_path)
def settle_scan_cmd(depth, rho, base, config_path, out):
    """Check sampled points for exactly constant trajectory tails."""
    program, bundle, _ = _configure("main", config_path, depth, rho, base)
    settled, sampled = acceptance.settle_scan(bundle, program)
    payload = {"horizon": program.stage_length, "sampled": sampled, "settled": settled}
    _dump_json(out, payload)
    click.echo(f"{settled}/{sampled} settle -> {out}")
    if settled < sampled:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("distality")
@_atlas_options()
@click.option("--max-code-depth", type=int, default=4, show_default=True)
@click.option("--steps", type=int, default=None, help="default: half the exact horizon")
@click.option("-o", "out", default="distality.json", show_default=True, callback=_out_path)
def distality_cmd(depth, rho, base, config_path, max_code_depth, steps, out):
    """Verify split-depth gap bounds for interval pairs."""
    # distality_scan checks m and the steps too, but only once the atlas is built
    if not 0 <= max_code_depth < depth:
        raise click.UsageError(f"max code depth {max_code_depth} outside 0..{depth - 1}")
    horizon = exact_horizon(depth)
    if steps is not None and not 0 <= steps <= horizon:
        raise click.UsageError(f"steps {steps} outside 0..{horizon}")
    program, bundle, _ = _configure("main", config_path, depth, rho, base)
    T, rows = acceptance.distality_scan(bundle, program, max_code_depth, steps)
    bad = [r for r in rows if not r.ok]
    _dump_json(out, {"steps": T, "rows": [r.to_json_dict() for r in rows]})
    click.echo(f"{len(rows) - len(bad)}/{len(rows)} pairs hold -> {out}")
    if bad:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("convergence")
@_atlas_options()
@click.option("-o", "out", default="convergence.json", show_default=True, callback=_out_path)
def convergence_cmd(depth, rho, base, config_path, out):
    """Per-stage uniform-distance envelopes against the limit map."""
    program, bundle, _ = _configure("main", config_path, depth, rho, base)
    rows, strict = convergence_report(bundle, program)
    payload = {
        "rows": [r.to_json_dict() for r in rows],
        "strictly_decreasing": strict,
    }
    _dump_json(out, payload)
    click.echo(
        "envelopes: "
        + ", ".join(f"{r.label}={float(r.envelope):.5f}" for r in rows)
        + f" -> {out}"
    )
    if not strict or not all(r.within_bound for r in rows):
        sys.exit(EXIT_CHECK_FAILED)


@main.command("verify-lemma-lm")
@click.option("--max-k", type=click.IntRange(1, MAX_K), default=6, show_default=True)
def verify_lemma_lm_cmd(max_k):
    """Exhaustive reversing-step orbit checks for all blocks up to max-k."""
    checked, failure = acceptance.reversing_orbit_scan(max_k)
    if failure is not None:
        click.echo(f"FAIL: {failure}")
        sys.exit(EXIT_CHECK_FAILED)
    click.echo(f"{checked} blocks verified (orbit closure and single cylinder visit)")


@main.command("verify-all")
def verify_all_cmd():
    """Run the full acceptance battery; exit 0 only if every line passes."""
    results = acceptance.run_all(echo=click.echo)
    if not all(r.ok for r in results):
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
