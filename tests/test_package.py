"""What ``import ndslab`` loads in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import ndslab
print(json.dumps([sorted(m for m in sys.modules if m.startswith("ndslab.")), ndslab.__version__]))
"""


def test_import_loads_exactly_the_layer_modules():
    # perfbench's tracer wraps every layer found in sys.modules after
    # ``import ndslab``; the battery and the CLI stay unloaded until asked for
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    modules, version = json.loads(out)
    layers = ["analysis", "blowup", "constructions", "dynamics", "plmap", "symbolic"]
    assert modules == [f"ndslab.{layer}" for layer in layers]
    assert version == "0.1.0"
