"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_references.py

It runs one pass of every workload for every order variant of its inputs
(one only for the workloads whose outputs do not depend on the order).
Rewrite ``references.json`` only from code whose outputs are known good:
the battery's own checks (``ndslab verify-all``) must pass on it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def record(workload: str, variant: int) -> dict:
    ops = workloads.run_pass(workload, workloads.setup(workload, variant))
    return {op.key: op.facts for op in ops}


def main() -> None:
    refs: dict = {}
    for workload in workloads.WORKLOADS:
        variants = [0] if workload in workloads.ORDER_FREE else range(workloads.ORDER_VARIANTS)
        for v in variants:
            refs.setdefault(workload, {})[str(v)] = record(workload, v)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    for workload in ("entropy-main", "greedy-tent"):
        print(workload, "order 0:", json.dumps(refs[workload]["0"]))
    ly = refs["orbits-main"]["0"]
    distality = ly.pop("distality")
    classes = {c: sum(v[0] == c for v in ly.values()) for c in "Lad"}
    print("orbits-main:", len(ly), "distinct pairs by class", classes, "distality", distality)


if __name__ == "__main__":
    main()
