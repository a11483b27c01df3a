"""Every entry point the benchmark's tracer wraps still exists.

perfbench/tracer.py raises MissingLayer for a listed entry point that is
gone; resolving them all here makes a rename fail the tests before it
breaks the benchmark.  The tracer module is only imported, never installed.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
