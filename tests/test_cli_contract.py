"""The CLI's exit-code contract, checked on generated command lines.

Each option of every command (``verify-all`` has none) is drawn from a valid
pool or from an invalid one, relative to the drawn atlas depth and family.  A
line whose options are all valid must exit 0 or 1.  A line with an invalid
value must exit 2, and no line may raise anything but ``SystemExit`` or
print a traceback.  A command reads, then builds: ``_configure`` reads the
``--config`` file (and ``load_program`` a ``build-nds`` artefact), and
``_build`` builds the atlas and the main program.  When an invalid value is
refused depends on what it needs:

* ``parse``: an option value is refused before any file is read or anything
  is built (``_configure``, ``load_program`` and the builders refuse), and
  so is any option that the line sets but would never read: the atlas
  options for a family other than main, ``--config`` for tent and identity,
  and ``--count`` beside a ``--times 1..n``;
* ``read``: a value in a file the line names (a ``--config`` file or a
  ``build-nds`` artefact) is refused while it is read, and an ``entropy
  --count`` beyond the configured stages between the read and the build, so
  before any map is built or evaluated;
* ``build``: a main-family configuration that the atlas of the drawn depth
  cannot hold (a block longer than the depth, an all-ones block as long as
  the depth, which visits the frontier code, or the default stages below
  depth 4) is refused once ``_build`` has built the atlas.

A line holding invalid values of several kinds is refused at the earliest.
A line draws from a ``random.Random`` seeded with the command and the line's
number.  Valid lines sample every pool uniformly.  The invalid lines take
each entry of each invalid pool in turn, so that every entry is the earliest
refusal of at least one line; a draw that does not make it so is drawn again
from the next seed.
"""

import json
import random
from functools import lru_cache
from pathlib import Path

import pytest
from click.testing import CliRunner

from ndslab import acceptance, cli, constructions
from ndslab.cli import main

LEVELS = ("parse", "read", "build")  # earliest first

FAMILIES = ("lemma", "main", "tent", "identity")

RHO = ([None, "1/3", "2/5", "3/4"], ["0", "1", "1/0", "abc", "-1/3", "3/2"])
BASE = ([None, "2", "3", "5"], ["0", "1", "-2", "x"])
DEPTH_BAD = ["0", "-1", str(cli.MAX_DEPTH + 1), "abc"]
OUT = (["out"], ["a-directory", "missing/out"])

# --config files that the family's checks refuse before anything is built
BAD_CONFIG = {
    "lemma": [
        '{"num_stages": 0}', '{"num_stages": 2.7}', '{"num_stages": "3"}',
        '{"num_stages": true}', '{"num_stages": 2, "repeats": [1]}',
        '{"num_stages": 2, "repeats": [1, 0]}', '{"stages": []}',
        '{"num_stages": 2, "repeats": [1, 2, 9]}',
    ],
    "main": [
        '{"stages": []}', '{"stages": {"block": "1", "a": 1}}', '{"stage": []}',
        '{"stages": [{"block": "1", "a": 0}]}', '{"stages": [{"block": "1", "a": 2.5}]}',
        '{"stages": [{"block": "1", "a": true}]}', '{"stages": [{"block": "12", "a": 1}]}',
        '{"stages": [{"block": "11", "a": 1}, {"block": "1", "a": 1}]}',
        '{"stages": [{"block": "1"}]}', '{"stages": [{"block": "1", "a": 1, "k": 2}]}',
        '{"stages": [{"block": ["1"], "a": 1}]}', '{"num_stages": 2}',
    ],
}
BAD_FILE = ["[1, 2]", "{", None]  # None: the named file does not exist
# tent and identity read no --config: any file is refused unread
UNREAD_CONFIG = ["{}", '{"stages": []}', *BAD_FILE]

# faults of a build-nds artefact that load_program refuses
PROGRAM_FAULTS = (
    "drop", "horizon-type", "horizon-negative", "frontier-inverted", "map-not-increasing",
    "map-value", "tail-mode", "index-bool", "stages-type", *BAD_FILE,
)

FILE_COMMANDS = ("trajectory", "dump-map")
ATLAS_COMMANDS = ("ly-scan", "settle-scan", "distality", "convergence")
COMMANDS = (
    "build-atlas", "build-nds", "entropy", *ATLAS_COMMANDS, *FILE_COMMANDS, "verify-lemma-lm"
)


class Line:
    """A command line being drawn: its argv, the files it names and its refusals.

    A valid line draws every option from its valid pool.  An invalid line has
    a target, one entry of one option's invalid pool, as (flag, key): it
    draws that option and at most one other from their invalid pools.  Every
    invalid pool the line passes is recorded in ``offered``, and each entry
    it takes in ``drawn``, with the level that refuses it.
    """

    def __init__(
        self, rng: random.Random, command: str, options: list[str], target: tuple | None = None
    ):
        self.rng = rng
        self.argv = [command]
        self.files: dict[str, str] = {}
        self.levels: list[str] = []
        self.offered: set[tuple] = set()
        self.drawn: dict[tuple, str] = {}
        self.target = target
        bad = rng.randint(1, min(2, len(options)))
        self.bad = set()
        if target is not None:
            others = [o for o in options if o != target[0]]
            self.bad = {target[0], *rng.sample(others, bad - 1)}

    @property
    def level(self) -> str | None:
        """The earliest level that refuses the line (None: a valid line)."""
        return min(self.levels, key=LEVELS.index, default=None)

    def pick(self, flag: str, pool, level: str = "parse", key=lambda entry: entry):
        """Offer flag's invalid pool; a bad flag takes an entry and returns (value, level).

        An entry is a value, refused at level, or a (value, level) pair.  The
        flag takes the target's entry if the pool holds it, else a random one;
        None when the flag is not bad.
        """
        keys = [(flag, key(entry)) for entry in pool]
        self.offered.update(keys)
        if flag not in self.bad:
            return None
        i = keys.index(self.target) if self.target in keys else self.rng.randrange(len(pool))
        value, level = pool[i] if isinstance(pool[i], tuple) else (pool[i], level)
        self.levels.append(level)
        self.drawn[keys[i]] = level
        return value, level

    def option(self, flag: str, valid: list, invalid: list, level: str = "parse"):
        """Draw flag's value (None: flag is left out) and return it."""
        taken = self.pick(flag, invalid, level)
        value = self.rng.choice(valid) if taken is None else taken[0]
        if value is not None:
            self.argv += [flag, value]
        return value

    def file(self, flag: str, text: str | None) -> None:
        """Pass flag a file holding text (None: a missing file)."""
        name = "missing.json" if text is None else f"{flag.strip('-')}.json"
        if text is not None:
            self.files[name] = text
        self.argv += [flag, name]


def _stages(*blocks: str) -> str:
    return json.dumps({"stages": [{"block": b, "a": 1} for b in blocks]})


def _config(line: Line, family: str, depth: int) -> None:
    """--config: a valid configuration, one refused while read or one refused while built.

    A family without config keys takes no --config: every file is refused while parsing.
    """
    rng = line.rng
    if family not in BAD_CONFIG:
        taken = line.pick("--config", UNREAD_CONFIG)
        if taken is not None:
            line.file("--config", taken[0])
        return
    pool = [(text, "read") for text in BAD_CONFIG[family] + BAD_FILE]
    if family == "main":
        pool.append((_stages("1" * depth), "build"))
        if depth < 5:
            pool.append((_stages("0" * (depth + 1)), "build"))
        if depth < 4:
            pool.append(("default", "build"))
    # the same text means another thing to another family
    taken = line.pick("--config", pool, key=lambda entry: (family, entry[0]))
    if taken is not None:
        if taken[0] != "default":
            line.file("--config", taken[0])
    elif family == "main":
        if depth >= 4 and rng.random() < 0.5:
            return  # the default stages
        stages = []
        for k in sorted(rng.sample(range(1, depth + 1), min(depth, rng.randint(1, 2)))):
            block = "".join(rng.choice("01") for _ in range(k))
            if block == "1" * depth:  # its visit index is the frontier code's
                block = "0" + block[1:]
            stages.append({"block": block, "a": rng.randint(1, 2)})
        line.file("--config", json.dumps({"stages": stages}))
    else:
        text = rng.choice([None, '{"num_stages": 1}', '{"num_stages": 2, "repeats": [1, 2]}'])
        if text is not None:
            line.file("--config", text)


def _atlas_options(line: Line, read: bool = True) -> int:
    """--depth, --rho and --base; the depth that the relative pools are drawn against.

    A line that reads no atlas (a family other than main) may set none of
    them: their defaults, set on the line, join their invalid pools.
    """
    depth = line.rng.randint(1, 5)
    if read:
        line.option("--depth", [str(depth)], DEPTH_BAD)
        line.option("--rho", *RHO)
        line.option("--base", *BASE)
    else:
        line.option("--depth", [None], [*DEPTH_BAD, str(acceptance.DEFAULT_DEPTH)])
        line.option("--rho", [None], [*RHO[1], str(acceptance.DEFAULT_RHO)])
        line.option("--base", [None], [*BASE[1], str(acceptance.DEFAULT_BASE)])
    return depth


@lru_cache(maxsize=None)
def _artefact(family: str) -> str:
    runner = CliRunner()
    with runner.isolated_filesystem():
        depth = ["--depth", "4"] if family == "main" else []
        argv = ["build-nds", "--family", family, *depth, "-o", "p.json"]
        assert runner.invoke(main, argv).exit_code == 0
        return Path("p.json").read_text()


def _bad_artefact(rng: random.Random, text: str, fault) -> str | None:
    """The artefact with the fault, one of PROGRAM_FAULTS (None: no file at all)."""
    if fault in BAD_FILE:
        return fault
    d = json.loads(text)
    if fault == "drop":
        del d[rng.choice(sorted(d))]
    elif fault == "horizon-type":
        d["exact_horizon"] = "abc"
    elif fault == "horizon-negative":
        d["exact_horizon"] = -3
    elif fault == "frontier-inverted":
        d["frontier"] = [["1/2", "1/4"]]
    elif fault == "map-not-increasing":
        d["map_table"][0] = {"x": ["0", "1/2", "1/2", "1"], "y": ["0", "0", "1", "1"]}
    elif fault == "map-value":
        d["map_table"][0] = {"x": ["0", "1"], "y": ["0", "2"]}
    elif fault == "tail-mode":
        d["tail_mode"] = {"cycle": "repeat", "repeat": "cycle"}[d["tail_mode"]]
    elif fault == "index-bool":
        d["stages"][0]["maps"][0] = True
    else:
        d["stages"] = "B1"
    return json.dumps(d)


def _family_line(rng: random.Random, command: str, target) -> Line:
    """build-nds and entropy: the family decides the config and the times."""
    family = rng.choice(FAMILIES)
    options = ["--family", "--depth", "--rho", "--base", "--config", "-o"]
    if command == "entropy":
        options += ["--times", "--epsilon", "--min-headline", "--count"]
    line = Line(rng, command, options, target)
    if line.option("--family", [family], ["foo", None]) != family:
        family = "main"  # an invalid family: the other pools no longer matter
    depth = _atlas_options(line, family == "main")
    _config(line, family, depth)
    line.option("-o", *OUT)
    if command == "build-nds":
        return line
    # the times that take a count; None, the default, is S for the main
    # family and 1..count for the others
    counted = ["S", "R", None] if family == "main" else [None]
    times = ["1..1", "1..2"] + (counted if family == "main" else ["1..3", None])
    bad_times = ["1..x", "1..0", "T"] + ([] if family == "main" else ["S", "R"])
    spec = line.option("--times", times, bad_times)
    if family == "main" and spec in counted:
        # a valid line's stages may hold a single stage time
        line.option("--count", ["1"], ["0", "-1"] + ([] if spec == "R" else [("40", "read")]))
    elif spec in counted:  # a table at 1..8 would take seconds
        line.option("--count", ["1", "2", "3"], ["0", "-1"])
    else:  # a range reads no count: any count beside it is refused
        line.option("--count", [None], ["0", "-1", "3"])
    line.option("--epsilon", [None, "1/6", "1/3"], ["0", "-1/3", "abc", "1/0"])
    line.option("--min-headline", [None, "0", "100"], ["abc", "nan"])
    return line


def _atlas_line(rng: random.Random, command: str, target) -> Line:
    """ly-scan, settle-scan, distality and convergence, on the main family."""
    extra = {
        "ly-scan": ["--pairs", "--max-code-depth", "--delta", "--seed"],
        "distality": ["--max-code-depth", "--steps"],
    }.get(command, [])
    line = Line(rng, command, ["--depth", "--rho", "--base", "--config", "-o", *extra], target)
    depth = _atlas_options(line)
    _config(line, "main", depth)
    line.option("-o", *OUT)
    if command == "ly-scan":
        line.option("--pairs", ["1", "3"], ["0", "-5"])
        codes = [str(m) for m in range(depth + 1)] + ([None] if depth >= 2 else [])
        line.option("--max-code-depth", codes, ["-1", str(depth + 1)])
        line.option("--delta", [None, "1/10", "1/3"], ["0", "-1/4", "abc"])
        line.option("--seed", [None, "0", "7"], ["x"])
    elif command == "distality":
        codes = [str(m) for m in range(depth)] + ([None] if depth >= 5 else [])
        line.option("--max-code-depth", codes, ["-1", str(depth)])
        horizon = 2 ** (depth - 1)
        line.option("--steps", [None, "0", str(horizon)], ["-1", str(horizon + 1)])
    return line


def _file_line(rng: random.Random, command: str, target) -> Line:
    """trajectory and dump-map, on a build-nds artefact."""
    options = ["--program", "-o"]
    options += ["--x", "--steps"] if command == "trajectory" else ["--t", "--grid"]
    line = Line(rng, command, options, target)
    text = _artefact(rng.choice(FAMILIES))
    taken = line.pick("--program", PROGRAM_FAULTS, "read")
    line.file("--program", text if taken is None else _bad_artefact(rng, text, taken[0]))
    line.option("-o", *OUT)
    if command == "trajectory":
        line.option("--x", ["0", "1/3", "1"], ["2", "-1/2", "abc", "1/0"])
        line.option("--steps", ["0", "5", "20"], ["-1", "x", None])
    else:
        line.option("--t", [None, "1", "3", "40"], ["0", "-1"])
        line.option("--grid", [None, "1", "8"], ["0", "-3"])
    return line


def _draw(rng: random.Random, command: str, target) -> Line:
    if command == "build-atlas":
        line = Line(rng, command, ["--depth", "--rho", "--base", "-o"], target)
        _atlas_options(line)
        line.option("-o", *OUT)
        return line
    if command in ("build-nds", "entropy"):
        return _family_line(rng, command, target)
    if command in ATLAS_COMMANDS:
        return _atlas_line(rng, command, target)
    if command in FILE_COMMANDS:
        return _file_line(rng, command, target)
    line = Line(rng, command, ["--max-k"], target)
    line.option("--max-k", [None, "1", "3", "5"], ["0", "-1", str(cli.MAX_K + 1), "x"])
    return line


@lru_cache(maxsize=None)
def invalid_entries(command: str) -> tuple:
    """Every entry of every invalid pool of the command's options, as (flag, key).

    A pool depends on the family and the depth that a line draws, so the
    entries are gathered from the pools that valid lines 0..399 pass.
    """
    offered = set().union(*(command_line(command, True, n).offered for n in range(400)))
    return tuple(sorted(offered, key=repr))


def command_line(command: str, valid: bool, number: int) -> Line:
    """Valid or invalid line number of the command.

    Invalid line n targets entry n of ``invalid_entries``, cyclically.  A draw
    whose target the line's family or depth leaves out, or whose target is
    not its earliest refusal, is drawn again from the next seed.
    """
    target = None
    if not valid:
        entries = invalid_entries(command)
        target = entries[number % len(entries)]
    for attempt in range(1000):
        seed = f"{command} {valid} {number}" + (f" {attempt}" if attempt else "")
        line = _draw(random.Random(seed), command, target)
        if target is None or line.drawn.get(target) == line.level:
            return line
    raise AssertionError(f"no {command} line takes {target} as its earliest refusal")


def _refuse(*args):
    raise AssertionError("called after an invalid value should have been refused")


# what a line refused at each level may not reach
BEFORE_BUILD = [
    (cli, "build_atlas"), (constructions, "lemma_phi"), (constructions, "lemma_psi"),
    (acceptance, "autonomous_program"), (acceptance, "reversing_orbit_scan"),
    (cli, "trajectory"), (cli, "graph_samples"),
]
REFUSED = {
    "parse": [(cli, "_configure"), (cli, "load_program"), *BEFORE_BUILD],
    "read": BEFORE_BUILD,
}


def _run(line: Line) -> None:
    level = line.level
    runner = CliRunner()
    with runner.isolated_filesystem(), pytest.MonkeyPatch.context() as mp:
        Path("a-directory").mkdir()
        for name, text in line.files.items():
            Path(name).write_text(text)
        for module, name in REFUSED.get(level, []):
            mp.setattr(module, name, _refuse)
        res = runner.invoke(main, line.argv)
    shown = f"{line.argv} {line.files} -> {res.exit_code}\n{res.output}"
    assert res.exception is None or isinstance(res.exception, SystemExit), shown
    assert "Traceback" not in res.output, shown
    assert res.exit_code in ((2,) if level else (0, 1)), shown


# A valid line builds an atlas of depth <= 5 or a small program and makes a
# few calls.  entropy's main family samples 5,236 candidates and settle-scan
# follows 812 points, so these two draw fewer lines.
VALID_LINES = {"entropy": 8, "settle-scan": 10}
INVALID_LINES = 80  # at least the invalid entries of any command

# the entries of each command's invalid pools, counted by hand: a depth-relative
# entry counts once per depth it takes a new value at, a --config text once per
# family that reads one, and once for the two that do not
INVALID_ENTRIES = {
    "build-atlas": 16, "build-nds": 62, "entropy": 77, "ly-scan": 53, "settle-scan": 41,
    "distality": 53, "convergence": 41, "trajectory": 21, "dump-map": 18, "verify-lemma-lm": 4,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_command_lines_exit_0_or_1(command):
    for number in range(VALID_LINES.get(command, 30)):
        line = command_line(command, True, number)
        assert line.levels == []
        _run(line)


@pytest.mark.parametrize("command", COMMANDS)
def test_invalid_command_lines_exit_2(command):
    for number in range(INVALID_LINES):
        line = command_line(command, False, number)
        assert line.levels
        _run(line)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_invalid_entry_is_the_earliest_refusal_of_a_line(command):
    entries = invalid_entries(command)
    assert len(entries) == INVALID_ENTRIES[command] <= INVALID_LINES
    first = set()
    for number in range(INVALID_LINES):
        line = command_line(command, False, number)
        first |= {entry for entry, level in line.drawn.items() if level == line.level}
    assert first == set(entries)


def test_an_entropy_count_beyond_the_stages_is_refused_while_read():
    lines = [command_line("entropy", False, n) for n in range(INVALID_LINES)]
    assert any(
        ["--count", "40"] in [line.argv[i:i + 2] for i in range(len(line.argv))]
        and min(line.levels, key=LEVELS.index) == "read"
        for line in lines
    )
