"""A re-runnable catalogue of mutants, each with the tests that must kill it.

Run it from anywhere:

    python tests/mutants.py

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and checks that the unmutated copy passes every named test.  Then,
for each entry, it applies the entry's one replacement to a fresh copy and
runs the entry's tests there in one pytest subprocess.  An entry is
*killed* when its tests fail, *survived* when they pass, and *stale* when
its old text is not found exactly once in its file, so that the code has
moved on and the entry needs mending.  The exit status is 0 only when every
entry is killed.  pytest does not collect this file; ``test_mutants.py``
checks that every entry still applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


KEPT = "tests/test_kept_sample.py::"
CONTROLS = "tests/test_controls.py::"
FILTERS = "tests/test_float_filters.py::"
CONTRACT = "tests/test_cli_contract.py::"
MODEL = ("tests/test_main_model.py::test_atlas_orbits_follow_the_model",)

CATALOGUE = (
    Mutant(
        "ly_classify never returns LY-candidate",
        "src/ndslab/analysis.py",
        'cls = "LY-candidate"',
        'cls = "asymptotic-candidate"',
        (CONTROLS + "test_ly_scan_finds_the_tent",),
    ),
    Mutant(
        "distality_report is always ok",
        "src/ndslab/analysis.py",
        "ok=min_d >= bound,",
        "ok=True,",
        (CONTROLS + "test_distality_scan_rejects_the_tent",),
    ),
    Mutant(
        "kept answers are read through a prefix of their times",
        "src/ndslab/analysis.py",
        "if times == tuple(A) and",
        "if times[:len(A)] == tuple(A) and",
        (KEPT + "test_a_table_on_a_strict_prefix_samples_afresh",),
    ),
    Mutant(
        "a slot read ignores epsilon",
        "src/ndslab/analysis.py",
        "all(eps == epsilon for eps in epsilons)",
        "True",
        (KEPT + "test_calls_match_fresh_program", KEPT + "test_each_call_samples_only_on_a_miss"),
    ),
    Mutant(
        "a greedy flag reads every sampled time",
        "src/ndslab/analysis.py",
        "    T = max(times)\n",
        "    T = max(A)\n",
        (
            KEPT + "test_taint_between_horizons_long_call_first",
            KEPT + "test_lone_greedy_flags_only_its_own_times",
        ),
    ),
    Mutant(
        "a table writes the kept answers",
        "src/ndslab/analysis.py",
        "        passes = _greedy(_sample(program, candidates, times, []), n_list, epsilons)\n",
        "        passes = _greedy(_sample(program, candidates, times, []), n_list, epsilons)\n"
        "        program._kept_answers[:] = [(tuple(candidates), times, epsilons[0], passes[0], [])]\n",
        (KEPT + "test_a_table_keeps_nothing",),
    ),
    Mutant(
        "a table materializes its rows",
        "src/ndslab/analysis.py",
        "_greedy(_sample(program, candidates, times, []), n_list, epsilons)",
        "_greedy(list(_sample(program, candidates, times, [])), n_list, epsilons)",
        (KEPT + "test_a_table_holds_only_the_rows_it_keeps",),
    ),
    Mutant(
        "upto[s] takes n < s",
        "src/ndslab/analysis.py",
        "for n, bit in bits.items() if n <= s)",
        "for n, bit in bits.items() if n < s)",
        ("tests/test_greedy_oracles.py::test_every_cell_of_one_pass_matches_count_oracle",),
    ),
    Mutant(
        "a repeat keyed on times[0] instead of the earliest time",
        "src/ndslab/analysis.py",
        "T, first = max(times, default=0), min(times, default=0)",
        "T, first = max(times, default=0), times[0]",
        ("tests/test_greedy_oracles.py::test_unsorted_and_repeated_times_match_oracles",),
    ),
    Mutant(
        "gaps are taken only on the right of a shallow interval",
        "src/ndslab/acceptance.py",
        "for g in (i - 1, i)}",
        "for g in (i,)}",
        ("tests/test_candidate_oracles.py::test_main_candidates_at_the_battery_depth",),
    ),
    Mutant(
        "grid_in's first term takes b for d",
        "src/ndslab/acceptance.py",
        "head, den = 2 * m * a * d,",
        "head, den = 2 * m * a * b,",
        ("tests/test_candidate_oracles.py::test_grid_in_matches_fraction_steps",),
    ),
    Mutant(
        "_splice does not sort its points",
        "src/ndslab/constructions.py",
        "    points = sorted(points)\n",
        "",
        ("tests/test_construction_oracles.py::TestSplice",),
    ),
    Mutant(
        "the distality gap is not clamped at 0",
        "src/ndslab/analysis.py",
        "return max(0, min(max(p - q, u - v) for p, q, u, v in zip(bl, ar, al, br)))",
        "return min(max(p - q, u - v) for p, q, u, v in zip(bl, ar, al, br))",
        (FILTERS + "TestDistalityMinimum::test_matches_reference",),
    ),
    Mutant(
        "the common denominator comes from the first sequence only",
        "src/ndslab/analysis.py",
        "L = math.lcm(*(v.denominator for v in values.values()))",
        "L = math.lcm(*(v.denominator for v in seqs[0]))",
        (FILTERS + "TestIntegerRows",),
    ),
    Mutant(
        "the distality steps default to 2 ** (D - 2)",
        "src/ndslab/acceptance.py",
        "steps = bundle.exact_horizon // 2",
        "steps = 2 ** (D - 2)",
        (CONTRACT + "test_valid_command_lines_exit_0_or_1[distality]",),
    ),
    Mutant(
        "ly-scan --pairs is typed int",
        "src/ndslab/cli.py",
        '"--pairs", type=click.IntRange(min=1)',
        '"--pairs", type=int',
        (CONTRACT + "test_invalid_command_lines_exit_2[ly-scan]",),
    ),
    Mutant(
        "a failed check exits 0",
        "src/ndslab/cli.py",
        "    if failed:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_settle_scan_reports_no_settled_points",
            "tests/test_cli.py::test_command_prints_golden_line_and_exit_code",
        ),
    ),
    Mutant(
        "reading the config builds the main program",
        "src/ndslab/cli.py",
        '        if "stages" not in cfg:\n',
        "        _build(StageParams(), 4, Fraction(1, 2), 2)\n"
        '        if "stages" not in cfg:\n',
        ("tests/test_cli.py::test_configure_reads_the_main_family_without_building",),
    ),
    Mutant(
        "the family check is skipped",
        "src/ndslab/cli.py",
        '    ignored = set() if family == "main" else {"depth", "rho", "base"}\n'
        '    ignored |= set() if family in CONFIG_KEYS else {"config_path"}\n',
        "    ignored = set()\n",
        (
            "tests/test_cli.py::test_bad_option_exits_2_before_building[build-nds-tent-depth]",
            "tests/test_cli.py::test_config_of_a_family_without_keys_exits_2_unread",
        ),
    ),
    Mutant(
        "--count beside a range is accepted",
        "src/ndslab/cli.py",
        '    ignored |= set() if times_spec in (None, "S", "R") else {"count"}\n',
        "",
        ("tests/test_cli.py::test_entropy_count_beside_a_range_exits_2",),
    ),
    Mutant(
        "--min-headline accepts nan",
        "src/ndslab/cli.py",
        "not math.isfinite(value)",
        "math.isinf(value)",
        ("tests/test_cli.py::test_bad_option_exits_2_before_building[entropy-min-headline-nan]",),
    ),
    Mutant(
        "load_program does not check tail_mode",
        "src/ndslab/cli.py",
        '        if d["tail_mode"] != ("cycle" if tail is None else "repeat"):\n'
        "            raise ValueError(f\"tail mode {d['tail_mode']!r}: repeat needs a tail map, "
        'cycle none")\n',
        "",
        (CONTRACT + "test_invalid_command_lines_exit_2[trajectory]",),
    ),
    Mutant(
        "lemma_nds truncates long repeats",
        "src/ndslab/constructions.py",
        "    if len(repeats) != num_stages:\n",
        "    repeats = repeats[:num_stages]\n    if len(repeats) != num_stages:\n",
        (
            "tests/test_constructions.py::TestLemmaProgram::"
            "test_rejects_bad_counts_before_building[repeats-longer-than-stages]",
        ),
    ),
    Mutant(
        "the interning dict is keyed by numerator only",
        "src/ndslab/constructions.py",
        "ends.get((y.numerator, y.denominator), y)",
        "{n: v for (n, _), v in ends.items()}.get(y.numerator, y)",
        ("tests/test_atlas_oracles.py::test_stage_maps_take_the_partner_images_at_the_hull_ends",),
    ),
    Mutant(
        "lambda flips one letter too few",
        "src/ndslab/constructions.py",
        "flip = (1 << (atlas.depth + 1 - k)) - 1",
        "flip = (1 << (atlas.depth - k)) - 1",
        MODEL,
    ),
    Mutant(
        "a fold point is moved",
        "src/ndslab/constructions.py",
        "[(kl, nl), (il, nr), (ir, nl), (kr, nr)]",
        "[(kl, nl), ((kl + il) / 2, nr), (ir, nl), (kr, nr)]",
        MODEL,
    ),
    Mutant(
        "the stack is 2^-40 off centre",
        "src/ndslab/constructions.py",
        "    mid = (l + r) / 2\n",
        "    mid = (l + r) / 2 + Fraction(1, 2**40)\n",
        MODEL,
    ),
    Mutant(
        "the collapse is off centre",
        "src/ndslab/constructions.py",
        "centre = (eval_pl(base, kl) + eval_pl(base, kr)) / 2",
        "centre = (eval_pl(base, kl) + 2 * eval_pl(base, kr)) / 3",
        MODEL,
    ),
)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(
                source, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
            )
        else:
            shutil.copy2(source, dest / name)


def mutate(root: Path, mutant: Mutant) -> bool:
    """Apply the replacement under root; False when the old text is not there exactly once."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def run_tests(root: Path, tests) -> int:
    """pytest's exit status for the tests in the copy at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True)
    return done.returncode


def judge(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy_tree(root)
        if not mutate(root, mutant):
            return "stale"
        status = run_tests(root, mutant.tests)
    # 1: a test failed; 2: collection failed, e.g. the mutant does not import
    return {0: "survived", 1: "killed", 2: "killed"}.get(status, f"broken (pytest exit {status})")


def main() -> int:
    tests = list(dict.fromkeys(t for m in CATALOGUE for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        if run_tests(Path(tmp), tests):
            print("the unmutated copy fails the named tests", file=sys.stderr)
            return 2
    verdicts = []
    for mutant in CATALOGUE:
        start = time.perf_counter()
        verdicts.append(judge(mutant))
        print(f"{verdicts[-1]:>8}  {mutant.name}  ({time.perf_counter() - start:.1f} s)")
    killed = verdicts.count("killed")
    print(f"{killed} of {len(CATALOGUE)} killed")
    return 0 if killed == len(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
