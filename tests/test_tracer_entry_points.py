"""Every entry point the benchmark's tracer wraps still exists and is reached.

perfbench/tracer.py raises MissingLayer for a listed entry point that is
gone; resolving them all here makes a rename fail the tests before it
breaks the benchmark.  An entry point that still exists but is no longer
called would read as a silent zero, so one test installs the tracer in a
subprocess (installing patches the package modules for good), runs analyze
and verify, and requires a call in every layer.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# Runs analyze and verify under the installed tracer; prints the layer calls.
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from poissonsing import cli
from tracer import Tracer
tracer = Tracer().install()
phi = ("--phi", "x^3+y^3+z^3")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["analyze", *phi, "--format", "text"]),
             cli.main(["verify", *phi, "--suite", "all"])]
print(json.dumps({"codes": codes, "calls": tracer.snapshot()["calls"]}))
"""


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()
ENTRIES = [entry for entries in TRACER.LAYERS.values() for entry in entries]


@pytest.mark.parametrize("entry", ENTRIES)
def test_traced_entry_point_resolves(entry):
    owner, name, obj = TRACER.resolve(entry)
    assert callable(obj)
    assert getattr(owner, name) is obj


def test_a_missing_entry_point_is_reported():
    with pytest.raises(TRACER.MissingLayer, match="Echelon.no_such_method"):
        TRACER.resolve("linalg:Echelon.no_such_method")


def test_every_layer_is_reached():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(TRACER_PATH.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    assert [layer for layer in TRACER.LAYERS if not result["calls"].get(layer)] == []
