"""Run one benchmark workload against the ndslab sources of this checkout.

    python3 perfbench/run.py --workload entropy-main --seed 0 --seconds 15 --trace 0

The run makes cycles until ``--seconds`` is used up, always at least one:
each imports ndslab afresh, builds the workload's inputs from the seed
(``setup_s``) and makes one closed-loop pass over the workload's public calls
(``wall_s``); both are medians over the cycles.  Every call's output is
checked exactly against ``perfbench/references.json``.  With ``--trace 1``
it instead makes one untraced and one traced cycle and reports the
per-layer metrics; the spans go to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 2 when the checkout has no ndslab sources.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Units of every metric this script can print, end-to-end and per layer.
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
    "constructions.map_pieces": "count",
    "dynamics.distinct_start_ratio": "ratio",
    "dynamics.max_den_bits": "bits",
    "dynamics.trajectory.steps": "count",
    "analysis.witnesses": "count",
}

def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def import_ndslab():
    """Import ndslab from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ndslab
    except ImportError as exc:
        print(f"error: cannot import ndslab from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(ndslab.__file__).resolve().is_relative_to(SRC):
        print(f"error: ndslab was imported from {ndslab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int) -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "ndslab").glob("*.py"))
    )
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_lines": src_lines,
    }


def fresh_workloads():
    """Import ``workloads`` and all of ndslab anew, with no state left from earlier.

    Every cycle of a run starts from freshly imported modules, so a memo in
    ndslab, kept at module level or on the objects a set-up builds, is as
    cold for each set-up and pass as it is for a first call.
    """
    for name in [n for n in sys.modules if n in ("ndslab", "workloads") or n.startswith("ndslab.")]:
        del sys.modules[name]
    return importlib.import_module("workloads")


def cycle(workload: str, seed: int, tracer=None):
    """Fresh import, set-up and one pass.

    Returns the ops, the set-up and pass intervals and the inputs' map piece
    count.  With a tracer, it is installed for the set-up and the pass.
    """
    workloads = fresh_workloads()
    if tracer is not None:
        tracer.install()
    try:
        gc.collect()
        t0 = time.perf_counter()
        inputs = workloads.setup(workload, seed)
        t1 = time.perf_counter()
        gc.collect()
        t2 = time.perf_counter()
        ops = workloads.run_pass(workload, inputs)
        t3 = time.perf_counter()
    finally:
        if tracer is not None and not tracer.uninstall():
            sys.exit("error: the tracer left a wrapped ndslab attribute behind")
    return ops, (t0, t1), (t2, t3), workloads.map_pieces(inputs)


def measure(workload: str, seed: int, seconds: float):
    """Untraced run: cycles of set-up and pass until the time is used up."""
    setups: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    ops = []
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            pass_ops, setup, timed, _ = cycle(workload, seed)
            ops += pass_ops
            setups.append(setup)
            passes.append(timed)
            mean_cycle = (time.perf_counter() - start) / len(passes)
            if time.perf_counter() - start + mean_cycle > seconds:
                break
    import workloads  # the last cycle's copy

    ref = probe.reference_seconds
    latencies = [
        ref(op.start, op.start + op.seconds) * 1e3 for op in workloads.latency_ops(workload, ops)
    ]
    metrics = {
        "wall_s": statistics.median(ref(a, b) for a, b in passes),
        "setup_s": statistics.median(ref(a, b) for a, b in setups),
        "op_p50_ms": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "cycles": len(passes),
        "ops": len(ops),
        "latency_ops": len(latencies),
        "raw_wall_s": statistics.median(b - a for a, b in passes),
        "raw_setup_s": statistics.median(b - a for a, b in setups),
        "probe_samples": len(probe.durations),
        "probe_median_ms": probe.median_ms(),
    }
    if len(latencies) >= 100:
        # printed, not compared: transient stalls of the host spread it by ~20%
        info["op_p99_ms"] = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    return ops, metrics, info


def measure_traced(workload: str, seed: int):
    """Traced run: one untraced cycle, then one cycle with the tracer installed."""
    import tracing

    with speed.SpeedProbe() as probe:
        plain_ops, _, plain, _ = cycle(workload, seed)
        tracer = tracing.Tracer()
        traced_ops, _, traced, pieces = cycle(workload, seed, tracer)
    if [(o.key, o.facts) for o in plain_ops] != [(o.key, o.facts) for o in traced_ops]:
        sys.exit("error: traced and untraced passes gave different outputs")
    metrics = tracer.layer_metrics()
    metrics["constructions.map_pieces"] = pieces
    metrics["trace.overhead_s"] = (
        probe.reference_seconds(*traced) - probe.reference_seconds(*plain)
    )
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-seed{seed}.json"
    dump.write_text(json.dumps(tracer.dump()))
    info = {
        "cycles": 2,
        "ops": len(traced_ops),
        "spans": len(tracer.spans),
        "dump": str(dump.relative_to(ROOT)),
    }
    return traced_ops, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_ndslab()
    workloads = fresh_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    references = json.loads((HERE / "references.json").read_text())
    expected = workloads.expected_facts(references, args.workload, args.seed)

    record = run_record(args.workload, args.seed)
    if args.trace:
        ops, metrics, info = measure_traced(args.workload, args.seed)
    else:
        ops, metrics, info = measure(args.workload, args.seed, args.seconds)
    failed = workloads.count_mismatches(ops, expected)

    print("record " + json.dumps({**record, **info}))
    if not args.trace:
        print("times below are reference seconds (see speed.py); raw_* above are wall seconds")
    lines = [(name, value, "") for name, value in metrics.items()]
    if "op_p99_ms" in info:
        lines.append(("op_p99_ms", info["op_p99_ms"], "  (printed only)"))
    lines.append(("error_rate", failed / len(ops),
                  f"  ({failed} of {len(ops)} calls differ from the reference)"))
    for name, value, note in lines:
        print(f"{name:40s} {value:>16.6g} {unit_of(name)}{note}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
