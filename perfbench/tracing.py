"""Traced runs: wrap the public functions of each ndslab layer from outside.

Each public function defined in a layer module is replaced by a wrapper in
every ``ndslab`` module that binds it, including names other modules import
with ``from .x import y``; ``src/`` itself is never edited.  Wrapped calls
keep a stack, so a function's self time is its duration minus the time of
the wrapped calls it made, each counted with its wrapper's own bookkeeping,
so that the tracer's cost is not charged to the caller.  Calls to the hot
leaves (``eval_pl`` and the symbolic code operations, hundreds of thousands
per pass) are counted and timed per parent function instead of being
recorded one span each; every other call is kept in memory as a span (id,
name, start, end, parent id).
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

import ndslab  # noqa: F401  (imports every layer module)

LAYERS = ("symbolic", "plmap", "blowup", "constructions", "dynamics", "analysis", "acceptance")
LEAF_LAYERS = ("symbolic",)
LEAF_FUNCTIONS = ("plmap.eval_pl",)


def _public_functions(layer: str) -> dict[str, Callable]:
    module = sys.modules[f"ndslab.{layer}"]
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Per-function counts and self times, spans and a few layer counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.leaf_busy: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.trajectory_steps = 0
        self.trajectory_starts: set = set()
        self.max_den_bits = 0
        self.witnesses = 0
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._patched: list[tuple[object, str, Callable]] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Swap every public layer function for its wrapper, wherever bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            for name, fn in _public_functions(layer).items():
                qual = f"{layer}.{name}"
                leaf = layer in LEAF_LAYERS or qual in LEAF_FUNCTIONS
                wrappers[id(fn)] = self._wrap(qual, fn, leaf)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ndslab" and not mod_name.startswith("ndslab."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> bool:
        """Put every original back; True when each attribute is restored."""
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._patched)
        self._patched = []
        return restored

    def _wrap(self, qual: str, fn: Callable, leaf: bool) -> Callable:
        stack, calls, self_s = self._stack, self.calls, self.self_s
        after = {
            "dynamics.trajectory": self._after_trajectory,
            "analysis.greedy_separated": self._after_greedy,
        }.get(qual)

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            parent = stack[-1] if stack else None
            try:
                frame = [qual, 0.0, 0.0, 0 if leaf else len(self.spans) + 1]
                if not leaf:
                    self.spans.append(None)  # reserve the id; filled in on return
                stack.append(frame)
                frame[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    calls[qual] += 1
                    self_s[qual] += end - frame[1] - frame[2]
                    if leaf:
                        busy = self.leaf_busy[(qual, parent[0] if parent else "")]
                        busy[0] += 1
                        busy[1] += end - frame[1] - frame[2]
                    else:
                        self.spans[frame[3] - 1] = (
                            frame[3], qual, frame[1], end, parent[3] if parent else 0
                        )
                if after is not None:
                    after(result)
                return result
            finally:
                # the parent's self time excludes all of this wrapper's work,
                # its bookkeeping and after-hook included
                if parent is not None:
                    parent[2] += perf_counter() - enter

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_trajectory(self, traj) -> None:
        self.trajectory_steps += len(traj.values) - 1
        self.trajectory_starts.add(traj.start)
        bits = max(v.denominator.bit_length() for v in traj.values)
        self.max_den_bits = max(self.max_den_bits, bits)

    def _after_greedy(self, report) -> None:
        self.witnesses += len(report.witnesses)

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metric values named in BENCHMARK.json (trace overhead aside)."""

        def layer_total(table: dict, layer: str):
            return sum(v for k, v in table.items() if k.split(".")[0] == layer)

        traj_calls = self.calls["dynamics.trajectory"]
        return {
            "symbolic.calls": layer_total(self.calls, "symbolic"),
            "symbolic.self_s": layer_total(self.self_s, "symbolic"),
            "blowup.build_atlas.self_s": self.self_s["blowup.build_atlas"],
            "blowup.build_limit_map.self_s": self.self_s["blowup.build_limit_map"],
            "constructions.build_main_nds.self_s": self.self_s["constructions.build_main_nds"],
            "constructions.build_lambda.self_s": self.self_s["constructions.build_lambda"],
            "plmap.eval_pl.calls": self.calls["plmap.eval_pl"],
            "plmap.eval_pl.self_s": self.self_s["plmap.eval_pl"],
            "plmap.compose.calls": self.calls["plmap.compose"],
            "plmap.compose.self_s": self.self_s["plmap.compose"],
            "plmap.pl_from_points.self_s": self.self_s["plmap.pl_from_points"],
            "dynamics.trajectory.calls": traj_calls,
            "dynamics.trajectory.steps": self.trajectory_steps,
            "dynamics.trajectory.self_s": self.self_s["dynamics.trajectory"],
            "dynamics.distinct_start_ratio": (
                len(self.trajectory_starts) / traj_calls if traj_calls else 0.0
            ),
            "dynamics.max_den_bits": self.max_den_bits,
            "analysis.greedy_separated.self_s": self.self_s["analysis.greedy_separated"],
            "analysis.entropy_estimate.self_s": self.self_s["analysis.entropy_estimate"],
            "analysis.verify_separated.self_s": self.self_s["analysis.verify_separated"],
            "analysis.ly_classify.self_s": self.self_s["analysis.ly_classify"],
            "analysis.distality_report.self_s": self.self_s["analysis.distality_report"],
            "analysis.witnesses": self.witnesses,
            "acceptance.self_s": layer_total(self.self_s, "acceptance"),
        }

    def dump(self) -> dict:
        """Everything recorded, JSON-ready: spans, per-function and leaf totals."""
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "functions": {
                k: {"calls": self.calls[k], "self_s": self.self_s[k]} for k in sorted(self.calls)
            },
            "leaf_busy_by_parent": [
                {"leaf": leaf, "parent": parent, "calls": c, "busy_s": b}
                for (leaf, parent), (c, b) in sorted(self.leaf_busy.items())
            ],
        }
