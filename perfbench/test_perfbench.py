"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run every workload at smoke size, traced and untraced, check that the
reference comparison catches a perturbed output, and check that the default
seed reproduces the inputs of the verification battery.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from ndslab import acceptance  # noqa: E402

REFERENCES = json.loads((HERE / "references.json").read_text())


def _ndslab_attributes() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "ndslab" or name.startswith("ndslab.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_traced_and_untraced(workload):
    inputs = workloads.setup(workload, 3, workloads.SMOKE)
    plain = workloads.run_pass(workload, inputs)
    before = _ndslab_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run_pass(workload, inputs)
    finally:
        assert tracer.uninstall()
    after = _ndslab_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert plain and [(o.key, o.facts) for o in plain] == [(o.key, o.facts) for o in traced]
    metrics = tracer.layer_metrics()
    assert metrics["dynamics.trajectory.calls"] > 0
    assert metrics["plmap.eval_pl.calls"] == metrics["dynamics.trajectory.steps"] > 0
    assert all(span[4] < span[0] for span in tracer.spans)


def _reference_ops(workload: str, seed: int) -> list:
    expected = workloads.expected_facts(REFERENCES, workload, seed)
    if workload == "orbits-main":
        draws = workloads.seeded_order(workloads.ly_draws(8, 10, 1000), seed)
        keys = [workloads.ly_key(d) for d in draws]
        keys.append("distality")
    else:
        keys = list(expected)
    return [workloads.Op(k, 0.0, 0.0, json.loads(json.dumps(expected[k]))) for k in keys]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_check_flags_a_perturbed_output(workload):
    expected = workloads.expected_facts(REFERENCES, workload, 0)
    ops = _reference_ops(workload, 0)
    assert workloads.count_mismatches(ops, expected) == 0
    first = ops[0]
    if isinstance(first.facts, str):
        first.facts = "L" + first.facts[1:]
    elif isinstance(first.facts, bool):
        first.facts = not first.facts
    elif "cardinality" in first.facts:
        first.facts["cardinality"] += 1
    else:
        first.facts["headline"] = repr(float(first.facts["headline"]) + 1e-12)
    assert workloads.count_mismatches(ops, expected) == 1
    ops.append(workloads.Op("no-such-call", 0.0, 0.0, None))
    assert workloads.count_mismatches(ops, expected) == 2


def test_default_seed_references_match_the_battery():
    em = REFERENCES["entropy-main"]["0"]
    assert (em["greedy_n3"]["cardinality"], em["greedy_n8"]["cardinality"]) == (53, 87)
    assert em["verify_n3"] is True and em["verify_n8"] is True
    assert em["entropy"]["headline"].startswith("1.70")
    gt = REFERENCES["greedy-tent"]["0"]
    assert gt["tent"]["rows"][0][2] == 990
    assert gt["tent"]["headline"] == "0.6897704943128635"
    assert gt["identity"]["headline"] == "0.0"
    ops = _reference_ops("orbits-main", 0)
    assert len(ops) == 1001 and not any(op.facts[0] == "L" for op in ops[:-1])
    assert ops[-1].facts["rows"] == ops[-1].facts["ok"] == 496


def test_seed_sets_the_order():
    items = list(range(100))
    assert workloads.seeded_order(items, 0) == items
    assert workloads.seeded_order(items, workloads.ORDER_VARIANTS) == items
    shuffled = workloads.seeded_order(items, 1)
    assert shuffled != items and sorted(shuffled) == items
    assert shuffled == workloads.seeded_order(items, 1)


class _Captured(Exception):
    pass


@pytest.fixture(scope="module")
def battery_fixture():
    return workloads.build_fixture(12)


@pytest.fixture
def bench_setup(battery_fixture, monkeypatch):
    monkeypatch.setattr(workloads, "build_fixture", lambda depth: battery_fixture)
    return lambda workload: workloads.setup(workload, 0)


def test_default_seed_reproduces_7b_inputs(battery_fixture, bench_setup, monkeypatch):
    seen = []

    def capture(*args):
        seen.append(args)
        raise _Captured

    monkeypatch.setattr(acceptance, "greedy_separated", capture)
    monkeypatch.setattr(workloads.analysis, "greedy_separated", capture)
    with pytest.raises(_Captured):
        acceptance.criterion_7b(battery_fixture)
    with pytest.raises(_Captured):
        workloads.run_pass("entropy-main", bench_setup("entropy-main"))
    assert seen[0] == seen[1]


def test_default_seed_reproduces_7d_inputs(battery_fixture, bench_setup, monkeypatch):
    seen = []

    def capture(program, x, y, T, delta):
        seen.append((program, x, y, T, delta))
        return SimpleNamespace(classification="distal-candidate")

    monkeypatch.setattr(acceptance, "ly_classify", capture)
    assert acceptance.criterion_7d(battery_fixture).ok
    inputs = bench_setup("orbits-main")
    groups = inputs["groups"]
    drawn = [
        (inputs["program"], groups[gi][xi], groups[gj][yj], inputs["horizon"], inputs["delta"])
        for (gi, xi), (gj, yj) in inputs["draws"]
    ]
    assert drawn == seen


def test_default_seed_reproduces_criterion_8_inputs(monkeypatch):
    seen = []

    def capture(*args):
        seen.append(args)
        return SimpleNamespace(headline=0.7 if len(seen) == 1 else 0.0, rows=())

    monkeypatch.setattr(acceptance, "entropy_estimate", capture)
    monkeypatch.setattr(workloads.analysis, "entropy_estimate", capture)
    assert acceptance.criterion_8().ok
    workloads.run_pass("greedy-tent", workloads.setup("greedy-tent", 0))
    assert len(seen) == 4 and seen[:2] == seen[2:]


def test_latency_ops_are_chosen_by_key():
    ly = workloads.latency_ops("orbits-main", _reference_ops("orbits-main", 0))
    assert len(ly) == 1000 and all(op.key != "distality" for op in ly)
    for workload, key in (("entropy-main", "entropy"), ("greedy-tent", "tent")):
        chosen = workloads.latency_ops(workload, _reference_ops(workload, 0))
        assert [op.key for op in chosen] == [key]
