"""Every recorded benchmark operation prints exactly the recorded bytes.

perfbench/golden.json holds the SHA-256 of the stdout of every benchmark
operation at seed 0 (the three workloads' analyze and verify calls); this
test only reads it and the workload definitions.
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


def _seed0_ops():
    """The distinct operations of every workload at seed 0, in first-seen order."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    ops = {}
    for make in workloads.WORKLOADS.values():
        for op in make(0).ops:
            ops.setdefault(op.key, op)
    return list(ops.values())


GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
OPS = _seed0_ops()


def _op_id(op):
    phi = op.argv[op.argv.index("--phi") + 1]
    return phi if op.argv[0] == "analyze" else "%s:%s" % (op.argv[0], phi)


def test_every_recorded_operation_is_run():
    assert sorted(op.key for op in OPS) == sorted(GOLDEN)


@pytest.mark.parametrize("op", OPS, ids=_op_id)
def test_report_bytes_match_golden(capsys, op):
    code = main(list(op.argv))
    out = capsys.readouterr().out
    assert code == op.expect_exit == GOLDEN[op.key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[op.key]["sha256"]
