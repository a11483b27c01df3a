"""The catalog-mixed benchmark operations print exactly the recorded bytes.

perfbench/golden.json holds the SHA-256 of the stdout of every benchmark
operation at seed 0; this test only reads it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from poissonsing.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _catalog_mixed_ops():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    return workloads.catalog_mixed(0).ops


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("op", _catalog_mixed_ops(), ids=lambda op: op.argv[2])
def test_report_bytes_match_golden(capsys, op):
    code = main(list(op.argv))
    out = capsys.readouterr().out
    assert code == op.expect_exit == GOLDEN[op.key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[op.key]["sha256"]
