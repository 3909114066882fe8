"""Command-line surface: artefact formats, determinism, exit codes."""

import hashlib
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import click
import pytest
from click.testing import CliRunner

from ndslab import acceptance, cli, constructions
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.cli import load_program, main
from ndslab.dynamics import code_rel_trajectory
from ndslab.symbolic import all_codes


@pytest.fixture()
def runner():
    return CliRunner()


def test_build_atlas_artifact(runner, tmp_path):
    out = tmp_path / "atlas.json"
    res = runner.invoke(main, ["build-atlas", "--depth", "3", "-o", str(out)])
    assert res.exit_code == 0, res.output
    data = json.loads(out.read_text())
    assert data["depth"] == 3
    assert len(data["entries"]) == 2 ** 4
    assert data["entries"][0]["code"] == "|0"
    assert data["entries"][0]["left"] == "0"
    assert data["entries"][-1]["right"] == "1"
    assert data["frontier_codes"] == ["111|0"]


def test_build_atlas_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = runner.invoke(main, ["build-atlas", "--depth", "4", "-o", str(out)])
        assert res.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "family",
    [["main", "--depth", "5"], ["lemma"], ["tent"]],
    ids=["main-depth-5", "lemma", "tent"],
)
def test_program_reads_back_as_built(runner, tmp_path, family):
    path = tmp_path / "prog.json"
    res = runner.invoke(main, ["build-nds", "--family", *family, "-o", str(path)])
    assert res.exit_code == 0, res.output
    built, _, _ = cli._configure(
        family[0], None, 5, acceptance.DEFAULT_RHO, acceptance.DEFAULT_BASE
    )
    loaded = load_program(str(path))
    horizon = 2 * built.stage_length + 1
    for t in range(1, horizon + 1):
        assert loaded.map_at(t) == built.map_at(t)
    assert loaded.tail_map == built.tail_map
    assert (loaded.frontier, loaded.exact_horizon) == (built.frontier, built.exact_horizon)
    # every program's orbits read in the depth-5 atlas's coordinates
    bundle = build_limit_map(build_atlas(5, acceptance.DEFAULT_RHO, acceptance.DEFAULT_BASE))
    for c in all_codes(2):
        start = (c, Fraction(1, 3))
        got = code_rel_trajectory(bundle, loaded, start, horizon)
        assert got == code_rel_trajectory(bundle, built, start, horizon)


@pytest.mark.parametrize(
    "tail_map, tail_mode", [(None, "foo"), (0, "foo"), (None, "repeat"), (0, "cycle")]
)
def test_load_program_refuses_a_tail_mode_that_does_not_fit(tmp_path, tail_map, tail_mode):
    path = tmp_path / "prog.json"
    path.write_text(_program_json([0], tail_map, tail_mode))
    with pytest.raises(click.UsageError, match="tail mode"):
        load_program(str(path))


def test_build_atlas_rejects_bad_rho(runner, tmp_path):
    res = runner.invoke(
        main, ["build-atlas", "--rho", "7/2", "-o", str(tmp_path / "x.json")]
    )
    assert res.exit_code == 2


def test_program_roundtrip_and_trajectory(runner, tmp_path):
    prog_path = tmp_path / "prog.json"
    res = runner.invoke(
        main,
        ["build-nds", "--family", "main", "--depth", "5", "-o", str(prog_path)],
    )
    assert res.exit_code == 0, res.output
    prog = load_program(str(prog_path))
    assert prog.exact_horizon == 2 ** 4
    assert prog.tail_map is not None

    csv_path = tmp_path / "traj.csv"
    res = runner.invoke(
        main,
        [
            "trajectory",
            "--program", str(prog_path),
            "--x", "1/3",
            "--steps", "12",
            "-o", str(csv_path),
        ],
    )
    assert res.exit_code == 0, res.output
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,value_num,value_den,flag"
    assert len(lines) == 14
    t, num, den, flag = lines[1].split(",")
    assert (t, num, den, flag) == ("0", "1", "3", "0")


def test_trajectory_csv_from_the_frontier_matches_golden_digest(runner, tmp_path):
    # the start is the midpoint of the depth-6 frontier interval, so the flag
    # column switches from 0 to 1 after the first step; the digest was
    # recorded while a trajectory still stored one flag per step
    prog_path, csv_path = tmp_path / "prog.json", tmp_path / "traj.csv"
    res = runner.invoke(
        main, ["build-nds", "--family", "main", "--depth", "6", "-o", str(prog_path)]
    )
    assert res.exit_code == 0, res.output
    l, r = load_program(str(prog_path)).frontier[0]
    x = (l + r) / 2
    assert x == Fraction(29648039, 35645184)
    argv = ["trajectory", "--program", str(prog_path), "--x", str(x), "--steps", "40"]
    res = runner.invoke(main, argv + ["-o", str(csv_path)])
    assert res.exit_code == 0, res.output
    assert "(tainted: True)" in res.output
    text = csv_path.read_text()
    assert [row.split(",")[-1] for row in text.splitlines()[1:]] == ["0"] + ["1"] * 40
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a669cb697894d973271a24e5a82b83bb047a78d36f18475a0c454d0ffddfdf75"
    )


def test_trajectory_csv_flags_the_first_value_in_the_frontier_image(runner, tmp_path):
    # the start is the midpoint of G(100000|1): lambda carries it onto the
    # frontier code within step 1 and f_D into the frontier image, so the
    # first inexact value is row 1 although the start is off the frontier
    prog_path, csv_path = tmp_path / "prog.json", tmp_path / "traj.csv"
    res = runner.invoke(
        main, ["build-nds", "--family", "main", "--depth", "6", "-o", str(prog_path)]
    )
    assert res.exit_code == 0, res.output
    argv = ["trajectory", "--program", str(prog_path), "--x", "22311193/35645184", "--steps", "4"]
    res = runner.invoke(main, argv + ["-o", str(csv_path)])
    assert res.exit_code == 0, res.output
    rows = [row.split(",") for row in csv_path.read_text().splitlines()[1:]]
    assert rows[1] == ["1", "70175", "417717", "1"]
    assert [row[-1] for row in rows] == ["0", "1", "1", "1", "1"]


def test_trajectory_rejects_outside_domain(runner, tmp_path):
    prog_path = tmp_path / "prog.json"
    runner.invoke(main, ["build-nds", "--family", "lemma", "-o", str(prog_path)])
    res = runner.invoke(
        main,
        ["trajectory", "--program", str(prog_path), "--x", "5/4", "--steps", "3"],
    )
    assert res.exit_code == 2


@pytest.mark.parametrize("x", ["5/4", "abc", "1/0"])
def test_trajectory_bad_start_exits_2_before_reading_the_program(runner, tmp_path, monkeypatch, x):
    monkeypatch.setattr(cli, "load_program", _refuse)
    argv = ["trajectory", "--program", "missing.json", "--x", x, "--steps", "3"]
    res = runner.invoke(main, argv + ["-o", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert x in res.output


def test_dump_map_csv(runner, tmp_path):
    prog_path = tmp_path / "prog.json"
    runner.invoke(main, ["build-nds", "--family", "lemma", "-o", str(prog_path)])
    out = tmp_path / "map.csv"
    res = runner.invoke(
        main,
        ["dump-map", "--program", str(prog_path), "--t", "1", "--grid", "9", "-o", str(out)],
    )
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 11
    assert lines[1] == "0,0"
    # the first map is the stage-one horseshoe: identity at x = 1/3
    assert lines[4] == "1/3,1/3"


def test_lemma_verify_command(runner):
    res = runner.invoke(main, ["verify-lemma-lm", "--max-k", "5"])
    assert res.exit_code == 0
    assert "62 blocks verified" in res.output


def test_entropy_command_identity(runner, tmp_path):
    out = tmp_path / "e.json"
    res = runner.invoke(
        main,
        [
            "entropy",
            "--family", "identity",
            "--times", "1..6",
            "--count", "6",
            "--epsilon", "1",
            "-o", str(out),
        ],
    )
    assert res.exit_code == 0, res.output
    data = json.loads(out.read_text())
    assert data["headline"] == 0.0


def test_entropy_headline_is_set_by_the_one_time_cell(runner, tmp_path):
    # the headline is the table maximum; even the identity map separates six
    # points at one time, so the n = 1 cell sets it at log 6
    out = tmp_path / "e.json"
    res = runner.invoke(main, ["entropy", "--family", "identity", "--times", "1..5", "-o", str(out)])
    assert res.exit_code == 0, res.output
    data = json.loads(out.read_text())
    cells = {r["n"]: r for r in data["rows"]}
    assert sorted(cells) == [1, 2, 5]
    assert cells[1]["epsilon"] == "1/6" and cells[1]["cardinality"] == 6
    assert data["headline"] == cells[1]["estimate"] == math.log(6)
    assert all(cells[n]["estimate"] < data["headline"] for n in (2, 5))


def test_entropy_default_times_for_other_families_are_one_to_count(runner, tmp_path):
    out = tmp_path / "e.json"
    res = runner.invoke(main, ["entropy", "--family", "identity", "-o", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["times"] == list(range(1, 9))


def test_entropy_rejects_stage_times_for_other_families(runner, tmp_path):
    res = runner.invoke(
        main,
        ["entropy", "--family", "tent", "--times", "S", "-o", str(tmp_path / "e.json")],
    )
    assert res.exit_code == 2


def test_entropy_min_headline_gate(runner, tmp_path):
    out = tmp_path / "e.json"
    res = runner.invoke(
        main,
        [
            "entropy",
            "--family", "identity",
            "--times", "1..4",
            "--count", "4",
            "--epsilon", "1",
            "--min-headline", "0.5",
            "-o", str(out),
        ],
    )
    assert res.exit_code == 1


def test_convergence_command_small_depth(runner, tmp_path):
    out = tmp_path / "c.json"
    res = runner.invoke(
        main, ["convergence", "--depth", "6", "-o", str(out)]
    )
    assert res.exit_code == 0, res.output
    data = json.loads(out.read_text())
    assert data["strictly_decreasing"] is True
    assert all(r["within_bound"] for r in data["rows"])


def test_distality_command_small(runner, tmp_path):
    out = tmp_path / "d.json"
    res = runner.invoke(
        main,
        ["distality", "--depth", "6", "--max-code-depth", "2", "--steps", "16", "-o", str(out)],
    )
    assert res.exit_code == 0, res.output
    data = json.loads(out.read_text())
    assert all(r["ok"] for r in data["rows"])


def test_distality_default_steps_at_depth_1(runner, tmp_path):
    # half the exact horizon 2^(D-1) is 0 steps at depth 1, an int
    config, out = tmp_path / "c.json", tmp_path / "d.json"
    config.write_text('{"stages": [{"block": "0", "a": 1}]}')
    argv = ["distality", "--depth", "1", "--max-code-depth", "0", "--config", str(config)]
    res = runner.invoke(main, argv + ["-o", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["steps"] == 0


# SHA-256 of the artefact each command writes, recorded before the CLI handed
# its candidate grids, scales and distality pairs to ``acceptance``; a command
# that gathers different inputs or writes them differently fails here
GOLDEN_ARTEFACTS = {
    "entropy-main": (
        ["entropy", "--family", "main", "--depth", "6", "--times", "S", "--count", "6"],
        "fef0216cc43f315e75b9986ac5e3bc90fc23bbb47e8bced54f34dcc49cc43b75",
    ),
    "entropy-tent": (
        ["entropy", "--family", "tent", "--times", "1..4"],
        "c7375d8b0db76723bd072c3066c4921ebf2b074103fe274ed02f193757288b51",
    ),
    "entropy-lemma": (
        ["entropy", "--family", "lemma", "--times", "1..3"],
        "a0e376ec50155b6b85bce39d3a90191bd4e564de62d95c0cb2e38a70a15f4ee9",
    ),
    "distality-default-steps": (
        ["distality", "--depth", "6", "--max-code-depth", "3"],
        "114af020e5f83096550a49c6a0add7a05cdf89c71ec2e86969a22d722a8194f0",
    ),
    "distality-given-steps": (
        ["distality", "--depth", "7", "--max-code-depth", "2", "--steps", "20"],
        "3760ebdb80fe4a32123e614dfcda21d089fcbc2f3b50d0d641d33d1b68dd6146",
    ),
    "convergence": (
        ["convergence", "--depth", "6"],
        "c6c845a98d8ce0a82c3e2e9a73d90862cdab0a51be8f224883db8fd68d9510b2",
    ),
    # the atlas holds the code labels and their order, which no map digest pins
    "atlas-depth-1": (
        ["build-atlas", "--depth", "1"],
        "24e440f334316b96e18b2e4fc42e9d171c5faffd20292a5e4cf1adc584f3aa8d",
    ),
    "atlas-depth-6": (
        ["build-atlas", "--depth", "6"],
        "98af5f11cb03b741047ae45f4ff61b7c96004be6e0fe0729bf9764ef50aacfeb",
    ),
    "atlas-depth-12": (
        ["build-atlas", "--depth", "12"],
        "7726be86734d987c7c0e72f06f16bebdc153ac1f2491d0e713e171ea3563adc8",
    ),
    "atlas-depth-13": (
        ["build-atlas", "--depth", "13"],
        "1a123d7426217a9d092b7fe6d5e52f652cf28b256cd09ab294e2076bc8bf6d35",
    ),
    # the layout's common denominator depends on rho and the base as well
    "atlas-depth-8-rho-2-7-base-3": (
        ["build-atlas", "--depth", "8", "--rho", "2/7", "--base", "3"],
        "8f99c0578474bcc01adc1e38a5aea58a4a4c3dada04abf5c10711076b7740996",
    ),
    "atlas-depth-5-rho-99-100-base-9": (
        ["build-atlas", "--depth", "5", "--rho", "99/100", "--base", "9"],
        "6bf4e100a2b1730d1c52c539d23ada663f02939eb18f0b4ebdf269e58a7eb0a3",
    ),
    # the program artefact, recorded while a program still held its tail mode
    # and its bundle: these pin "tail_mode", "frontier" and "exact_horizon"
    # as well as the stages and the map table
    "build-nds-main-depth-6": (
        ["build-nds", "--family", "main", "--depth", "6"],
        "20bf7e9e41f5d93c76d07740c5ff77b1171cd2c79511d5ef6680c5730fc09288",
    ),
    "build-nds-main-depth-8": (
        ["build-nds", "--family", "main", "--depth", "8"],
        "5e3d8e35274f0450800161cb71cd42005f3566206e3125b86f2313100ba5cb01",
    ),
    "build-nds-lemma": (
        ["build-nds", "--family", "lemma"],
        "7979e89e978270f3e06e938c0db5069b6700a666170b6afa9feed7a33b6492e0",
    ),
    "build-nds-tent": (
        ["build-nds", "--family", "tent"],
        "77c26e535f75e4276f1711c2d45f02c716d1ee5c873bdc11ea74b6407b09258e",
    ),
    "build-nds-identity": (
        ["build-nds", "--family", "identity"],
        "138c1a3807460ce865e76efdd4077dff4331fbf5f4ea899175edfa3849daefbf",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ARTEFACTS))
def test_artefact_matches_golden_digest(runner, tmp_path, case):
    argv, digest = GOLDEN_ARTEFACTS[case]
    out = tmp_path / "out.json"
    res = runner.invoke(main, argv + ["-o", str(out)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_distality_horizon_validation(runner, tmp_path):
    res = runner.invoke(
        main,
        ["distality", "--depth", "6", "--steps", "4096", "-o", str(tmp_path / "d.json")],
    )
    assert res.exit_code == 2


def _refuse(*args):
    raise AssertionError("called before the configuration was checked")


@pytest.mark.parametrize(
    "argv",
    [["build-atlas"], ["build-nds", "--family", "main"], ["entropy", "--family", "main"], ["distality"]],
)
def test_depth_above_cap_exits_2_before_building(runner, tmp_path, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_atlas", _refuse)
    depth = str(cli.MAX_DEPTH + 1)
    res = runner.invoke(main, argv + ["--depth", depth, "-o", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


def test_depth_cap_admits_the_cap(runner, tmp_path, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, "build_atlas", reached)
    depth = str(cli.MAX_DEPTH)
    res = runner.invoke(main, ["build-atlas", "--depth", depth, "-o", str(tmp_path / "out")])
    assert isinstance(res.exception, Reached)


@pytest.mark.parametrize("max_code_depth", ["-1", "6", "7", "40"])
def test_distality_max_code_depth_exits_2_before_enumerating(
    runner, tmp_path, monkeypatch, max_code_depth
):
    monkeypatch.setattr(acceptance, "all_codes", _refuse)
    argv = ["distality", "--depth", "6", "--max-code-depth", max_code_depth]
    res = runner.invoke(main, argv + ["-o", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("max_code_depth", ["-1", "5", "9"])
def test_ly_scan_max_code_depth_exits_2_before_building(
    runner, tmp_path, monkeypatch, max_code_depth
):
    monkeypatch.setattr(cli, "_configure", _refuse)
    argv = ["ly-scan", "--depth", "4", "--max-code-depth", max_code_depth]
    res = runner.invoke(main, argv + ["-o", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"max code depth {max_code_depth} outside 0..4" in res.output


# option values that their command refuses before anything is built
EARLY_REFUSALS = {
    "entropy-times-not-a-range": ["entropy", "--family", "main", "--times", "1..x"],
    "entropy-times-range-empty": ["entropy", "--family", "main", "--times", "1..0"],
    "entropy-times-unknown": ["entropy", "--family", "main", "--times", "T"],
    "entropy-times-S-outside-main": ["entropy", "--family", "tent", "--times", "S"],
    "entropy-times-R-outside-main": ["entropy", "--family", "lemma", "--times", "R"],
    "entropy-times-S-count-zero": ["entropy", "--family", "main", "--count", "0"],
    "entropy-times-R-count-negative": [
        "entropy", "--family", "main", "--times", "R", "--count", "-2"
    ],
    "entropy-default-times-count-zero": ["entropy", "--family", "tent", "--count", "0"],
    "ly-scan-pairs-zero": ["ly-scan", "--pairs", "0"],
    "ly-scan-pairs-negative": ["ly-scan", "--pairs", "-5"],
    "ly-scan-delta-zero": ["ly-scan", "--delta", "0"],
    "ly-scan-delta-negative": ["ly-scan", "--delta", "-1/4"],
    "ly-scan-delta-not-rational": ["ly-scan", "--delta", "abc"],
    "distality-steps-negative": ["distality", "--steps", "-1"],
    "distality-steps-beyond-horizon": ["distality", "--steps", "5000"],
    "distality-steps-beyond-horizon-depth-6": ["distality", "--depth", "6", "--steps", "33"],
}


@pytest.mark.parametrize("case", sorted(EARLY_REFUSALS))
def test_bad_option_exits_2_before_building(runner, tmp_path, monkeypatch, case):
    monkeypatch.setattr(cli, "_configure", _refuse)
    res = runner.invoke(main, EARLY_REFUSALS[case] + ["-o", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


def test_distality_steps_at_the_horizon_reach_the_build(runner, tmp_path, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, "_configure", reached)
    argv = ["distality", "--depth", "6", "--steps", "32", "-o", str(tmp_path / "out")]
    assert isinstance(runner.invoke(main, argv).exception, Reached)


def test_entropy_count_is_unused_by_a_range(runner, tmp_path):
    argv = ["entropy", "--family", "identity", "--times", "1..3", "--count", "0"]
    res = runner.invoke(main, argv + ["-o", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("epsilon", ["0", "-1/3", "abc", "1/0"])
def test_entropy_bad_epsilon_exits_2_before_building(runner, tmp_path, monkeypatch, epsilon):
    monkeypatch.setattr(cli, "_configure", _refuse)
    argv = ["entropy", "--family", "main", "--epsilon", "1/6", "--epsilon", epsilon]
    res = runner.invoke(main, argv + ["-o", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert epsilon in res.output


@pytest.mark.parametrize(
    "config, stage_count",
    [(None, 15), ('{"stages": [{"block": "0", "a": 2}, {"block": "01", "a": 1}]}', 3)],
)
def test_entropy_count_beyond_the_stages_exits_2_before_building(
    runner, tmp_path, monkeypatch, config, stage_count
):
    # S needs only the stage params: a count they cannot hold is refused
    # before the atlas is built, with or without a config
    monkeypatch.setattr(cli, "build_atlas", _refuse)
    argv = ["entropy", "--family", "main", "--count", "100", "-o", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "stages.json").write_text(config)
        argv += ["--config", str(tmp_path / "stages.json")]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"times 'S': count 100 exceeds configured stages ({stage_count} times)" in res.output


@pytest.mark.parametrize("delta", ["0", "-1/4"])
def test_ly_scan_bad_delta_exits_2_before_drawing(runner, tmp_path, monkeypatch, delta):
    monkeypatch.setattr(acceptance, "random", SimpleNamespace(Random=_refuse))
    argv = ["ly-scan", "--depth", "4", "--delta", delta, "-o", str(tmp_path / "out")]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "delta must be positive" in res.output


def test_ly_scan_small_depth(runner, tmp_path):
    out = tmp_path / "ly.json"
    res = runner.invoke(main, ["ly-scan", "--depth", "5", "--pairs", "20", "-o", str(out)])
    assert res.exit_code == 0, res.output
    data = json.loads(out.read_text())
    assert data["counts"] == {
        "LY-candidate": 0,
        "asymptotic-candidate": 0,
        "distal-candidate": 20,
    }
    assert data["delta"] == "4/285"
    assert data["horizon"] == 85
    assert data["pairs"] == 20


def test_settle_scan_reports_no_settled_points(runner, tmp_path):
    # the known limitation of criterion 7c: no sampled trajectory is constant
    out = tmp_path / "s.json"
    res = runner.invoke(main, ["settle-scan", "--depth", "5", "-o", str(out)])
    assert res.exit_code == 1, res.output
    assert "0/812 settle" in res.output
    assert json.loads(out.read_text()) == {"horizon": 85, "sampled": 812, "settled": 0}


def _program_json(maps, tail_map=None, tail_mode="cycle", **fields):
    return json.dumps(
        {
            "map_table": [{"x": ["0", "1"], "y": ["0", "1"]}],
            "stages": [{"label": "s", "maps": maps}],
            "tail_mode": tail_mode,
            "tail_map": tail_map,
            "frontier": [],
            "exact_horizon": None,
            **fields,
        }
    )


TRAJECTORY_ARGV = ["trajectory", "--x", "1/3", "--steps", "3", "--program"]
LEMMA_CONFIG_ARGV = ["build-nds", "--family", "lemma", "--config"]
MAIN_CONFIG_ARGV = ["build-nds", "--family", "main", "--depth", "5", "--config"]

# --config files that each family's key check refuses before any map is built
BAD_CONFIGS = {
    "config-num-stages-float": ('{"num_stages": 2.7}', LEMMA_CONFIG_ARGV),
    "config-num-stages-bool": ('{"num_stages": true}', LEMMA_CONFIG_ARGV),
    "config-num-stages-string": ('{"num_stages": "3"}', LEMMA_CONFIG_ARGV),
    "config-misspelt-lemma-keys": ('{"num_stage": 3, "repeat": [9, 9, 9]}', LEMMA_CONFIG_ARGV),
    "config-lemma-with-stages": ('{"num_stages": 2, "stages": []}', LEMMA_CONFIG_ARGV),
    "config-repeats-bool": ('{"num_stages": 2, "repeats": [1, true]}', LEMMA_CONFIG_ARGV),
    "config-repeats-not-a-list": ('{"num_stages": 2, "repeats": {"1": 1}}', LEMMA_CONFIG_ARGV),
    "config-not-an-object": ("[1, 2]", LEMMA_CONFIG_ARGV),
    "config-stage-a-float-and-bool": (
        '{"stages": [{"block": "1", "a": 3.9}, {"block": "11", "a": true}]}',
        MAIN_CONFIG_ARGV,
    ),
    "config-stage-a-bool": ('{"stages": [{"block": "1", "a": true}]}', MAIN_CONFIG_ARGV),
    "config-stages-empty": ('{"stages": []}', MAIN_CONFIG_ARGV),
    "config-stages-not-a-list": ('{"stages": {"block": "1", "a": 3}}', MAIN_CONFIG_ARGV),
    "config-stage-unknown-key": ('{"stages": [{"block": "1", "a": 3, "k": 1}]}', MAIN_CONFIG_ARGV),
    "config-stage-block-not-a-string": ('{"stages": [{"block": ["1"], "a": 3}]}', MAIN_CONFIG_ARGV),
    "config-main-with-num-stages": ('{"num_stages": 2}', MAIN_CONFIG_ARGV),
    "config-tent-with-stages": (
        '{"stages": []}',
        ["entropy", "--family", "tent", "--times", "1..3", "--config"],
    ),
}

# atlas options that every family checks while parsing
BAD_ATLAS_OPTIONS = {
    "lemma-depth-negative": (None, ["build-nds", "--family", "lemma", "--depth", "-4"]),
    "lemma-rho-not-rational": (None, ["build-nds", "--family", "lemma", "--rho", "abc"]),
    "tent-depth-above-cap": (
        None,
        ["entropy", "--family", "tent", "--times", "1..2", "--depth", "99"],
    ),
    "tent-rho-above-one": (
        None,
        ["entropy", "--family", "tent", "--times", "1..2", "--rho", "7/2"],
    ),
    "identity-depth-zero": (None, ["build-nds", "--family", "identity", "--depth", "0"]),
    "identity-rho-zero": (None, ["build-nds", "--family", "identity", "--rho", "0"]),
    "identity-base-one": (None, ["build-nds", "--family", "identity", "--base", "1"]),
}

BAD_INPUTS = {
    "program-horizon-not-an-integer": (_program_json([0], exact_horizon="abc"), TRAJECTORY_ARGV),
    "program-horizon-negative": (_program_json([0], exact_horizon=-3), TRAJECTORY_ARGV),
    "program-frontier-reversed": (_program_json([0], frontier=[["1/2", "1/4"]]), TRAJECTORY_ARGV),
    "program-frontier-beyond-one": (
        _program_json([0], frontier=[["1/4", "3/2"]]),
        TRAJECTORY_ARGV,
    ),
    "program-map-index-bool": (
        _program_json([True], map_table=[{"x": ["0", "1"], "y": ["0", "1"]}] * 2),
        TRAJECTORY_ARGV,
    ),
    "block-not-binary": (
        '{"stages": [{"block": "12", "a": 3}]}',
        ["build-nds", "--family", "main", "--depth", "5", "--config"],
    ),
    "block-lengths-not-increasing": (
        '{"stages": [{"block": "11", "a": 3}, {"block": "1", "a": 3}]}',
        ["build-nds", "--family", "main", "--depth", "5", "--config"],
    ),
    "stage-without-a": (
        '{"stages": [{"block": "1"}]}',
        ["build-nds", "--family", "main", "--depth", "5", "--config"],
    ),
    "repeats-shorter-than-stages": (
        '{"num_stages": 5, "repeats": [1, 2]}',
        ["build-nds", "--family", "lemma", "--config"],
    ),
    "repeats-not-integers": (
        '{"num_stages": 2, "repeats": [1, 2.5]}',
        ["build-nds", "--family", "lemma", "--config"],
    ),
    "malformed-program-json": (
        '{"stages": [',
        ["trajectory", "--x", "1/3", "--steps", "3", "--program"],
    ),
    "negative-map-index": (_program_json([-1]), TRAJECTORY_ARGV),
    "negative-tail-map-index": (_program_json([0], -1, "repeat"), TRAJECTORY_ARGV),
    "unknown-tail-mode": (_program_json([0], None, "foo"), TRAJECTORY_ARGV),
    "unknown-tail-mode-with-tail-map": (_program_json([0], 0, "foo"), TRAJECTORY_ARGV),
    "cycle-with-tail-map": (_program_json([0], 0, "cycle"), TRAJECTORY_ARGV),
    "repeat-without-tail-map": (_program_json([0], None, "repeat"), TRAJECTORY_ARGV),
    "program-map-zero-denominator": (
        _program_json([0], map_table=[{"x": ["0", "1"], "y": ["0", "1/0"]}]),
        TRAJECTORY_ARGV,
    ),
    "program-frontier-zero-denominator": (
        _program_json([0], frontier=[["1/4", "1/0"]]),
        TRAJECTORY_ARGV,
    ),
    "program-without-maps-trajectory": (_program_json([]), TRAJECTORY_ARGV),
    "program-without-maps-dump-map": (_program_json([]), ["dump-map", "--program"]),
    "ly-scan-without-two-intervals": (
        None,
        ["ly-scan", "--depth", "4", "--max-code-depth", "-1"],
    ),
    "ly-scan-pairs-below-one": (None, ["ly-scan", "--depth", "4", "--pairs", "-5"]),
    "entropy-epsilon-zero": (
        None,
        ["entropy", "--family", "identity", "--times", "1..3", "--epsilon", "0"],
    ),
    "entropy-epsilon-negative": (
        None,
        ["entropy", "--family", "tent", "--times", "1..3", "--epsilon", "-1"],
    ),
    "distality-split-beyond-atlas": (None, ["distality", "--depth", "4"]),
    "distality-codes-beyond-atlas": (
        None,
        ["distality", "--depth", "6", "--max-code-depth", "7"],
    ),
    "distality-negative-steps": (None, ["distality", "--depth", "6", "--steps", "-3"]),
    "trajectory-negative-steps": (
        _program_json([0]),
        ["trajectory", "--x", "1/3", "--steps", "-1", "--program"],
    ),
    "dump-map-time-zero": (_program_json([0]), ["dump-map", "--t", "0", "--program"]),
    "dump-map-grid-zero": (_program_json([0]), ["dump-map", "--grid", "0", "--program"]),
    "bad-times-range": (None, ["entropy", "--family", "identity", "--times", "1..x"]),
    "more-times-than-stages": (
        None,
        ["entropy", "--family", "main", "--depth", "5", "--times", "S", "--count", "20"],
    ),
    "depth-too-small-for-stages": (None, ["build-nds", "--family", "main", "--depth", "3"]),
    "stage-visits-the-frontier": (
        '{"stages": [{"block": "1", "a": 1}]}',
        ["build-nds", "--family", "main", "--depth", "1", "--config"],
    ),
    "verify-lemma-lm-max-k-zero": (None, ["verify-lemma-lm", "--max-k", "0"]),
    "verify-lemma-lm-max-k-negative": (None, ["verify-lemma-lm", "--max-k", "-1"]),
    "verify-lemma-lm-max-k-above-cap": (None, ["verify-lemma-lm", "--max-k", "11"]),
    **BAD_CONFIGS,
    **BAD_ATLAS_OPTIONS,
}


def _invoke_case(runner, tmp_path, case):
    text, argv = BAD_INPUTS[case]
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = argv + [str(path)]
    # only commands that write a file take -o; an unknown option would exit 2 too
    if any("-o" in p.opts for p in main.commands[argv[0]].params):
        argv = argv + ["-o", str(tmp_path / "out")]
    return runner.invoke(main, argv)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_configuration_errors_exit_2(runner, tmp_path, case):
    res = _invoke_case(runner, tmp_path, case)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


def test_stage_past_the_exact_horizon_builds(runner, tmp_path):
    # block 10001 visits p = 17 > 2^(D-1) = 16 at depth 5
    config = tmp_path / "config.json"
    config.write_text('{"stages": [{"block": "10001", "a": 1}]}')
    argv = ["build-nds", "--family", "main", "--depth", "5", "--config", str(config)]
    res = runner.invoke(main, argv + ["-o", str(tmp_path / "program.json")])
    assert res.exit_code == 0, res.output
    assert "stages [33]" in res.output


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS) + sorted(BAD_ATLAS_OPTIONS))
def test_bad_config_exits_2_before_building(runner, tmp_path, monkeypatch, case):
    # lemma_nds checks its counts itself, then builds with these two
    for name in ("lemma_phi", "lemma_psi"):
        monkeypatch.setattr(constructions, name, _refuse)
    for name in ("build_atlas", "build_main_nds"):
        monkeypatch.setattr(cli, name, _refuse)
    monkeypatch.setattr(acceptance, "autonomous_program", _refuse)
    res = _invoke_case(runner, tmp_path, case)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize(
    "case", ["trajectory-negative-steps", "dump-map-time-zero", "dump-map-grid-zero"]
)
def test_bad_count_exits_2_before_reading_the_program(runner, tmp_path, monkeypatch, case):
    monkeypatch.setattr(cli, "load_program", _refuse)
    res = _invoke_case(runner, tmp_path, case)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("case", sorted(c for c in BAD_INPUTS if c.startswith("verify-lemma-lm")))
def test_bad_max_k_exits_2_before_scanning(runner, tmp_path, monkeypatch, case):
    monkeypatch.setattr(acceptance, "reversing_orbit_scan", _refuse)
    res = _invoke_case(runner, tmp_path, case)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)


# each command that writes a file, with its required options
OUT_ARGV = {
    "build-atlas": ["build-atlas", "--depth", "3"],
    "build-nds": ["build-nds", "--family", "lemma"],
    "trajectory": ["trajectory", "--x", "1/3", "--steps", "3", "--program", "p.json"],
    "dump-map": ["dump-map", "--program", "p.json"],
    "entropy": ["entropy", "--family", "identity", "--times", "1..3"],
    "ly-scan": ["ly-scan", "--depth", "4"],
    "settle-scan": ["settle-scan", "--depth", "4"],
    "distality": ["distality", "--depth", "6"],
    "convergence": ["convergence", "--depth", "4"],
}


@pytest.mark.parametrize("out", ["a-directory", "missing/out"])
@pytest.mark.parametrize("command", sorted(OUT_ARGV))
def test_bad_output_path_exits_2_before_any_work(runner, tmp_path, monkeypatch, command, out):
    for name in ("build_atlas", "load_program", "_configure"):
        monkeypatch.setattr(cli, name, _refuse)
    (tmp_path / "a-directory").mkdir()
    res = runner.invoke(main, OUT_ARGV[command] + ["-o", str(tmp_path / out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Invalid value for '-o'" in res.output
