"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from run import PROBES, ROOT, Bench, Checker, fastest, measure, merge_finals, wall
from tracer import MissingLayer, resolve
from workloads import (
    EXIT_NOT_ISOLATED,
    EXIT_OK,
    Op,
    Workload,
    brieskorn_pham,
    screen_batch,
)

SRC = os.path.join(ROOT, "src")

# Small operations that still reach every layer: a fresh analyze with text
# rendering, and a long-lived worker with a repeat and a gate rejection.
ANALYZE = Workload("small-analyze", True, (
    Op(("analyze", "--phi", "x^3+y^3+z^3", "--cases", "5", "--format", "text"), EXIT_OK),
))
VERIFY = Op(("verify", "--phi", "x^2+y^3+z^5", "--weights", "15,10,6", "--cases", "5"), EXIT_OK)
BATCH = Workload("small-batch", False, (
    VERIFY,
    Op(("verify", "--suite", "cohomology", "--phi", "x^3+y^3"), EXIT_NOT_ISOLATED),
    VERIFY,
))


def traced_pass(workload: Workload) -> dict:
    bench = Bench(Checker(None))
    try:
        result = bench.run_pass(workload, True)
    finally:
        bench.stop_all()
    assert bench.checker.failed == 0, bench.checker.problems
    return result


@pytest.mark.parametrize("workload", [ANALYZE, BATCH], ids=lambda w: w.name)
def test_layer_self_times_sum_to_traced_wall(workload):
    result = traced_pass(workload)
    _, trace = merge_finals(result["finals"])
    total = sum(trace["self_s"].values())
    # the layers nest inside the cli.main span, which is the timed call
    assert total == pytest.approx(wall(result), rel=0.01, abs=0.005)
    assert min(trace["self_s"].values()) >= 0.0


def test_counters_repeat_exactly_across_traced_runs():
    first, second = traced_pass(BATCH), traced_pass(BATCH)
    caches1, trace1 = merge_finals(first["finals"])
    caches2, trace2 = merge_finals(second["finals"])
    assert caches1 == caches2
    assert trace1["calls"] == trace2["calls"]
    assert trace1["counters"] == trace2["counters"]
    assert trace1["counters"]["milnor.rejected"] == 1
    assert trace1["calls"]["report.render"] == 2


def test_screen_batch_shares_for_default_seed():
    ops = screen_batch(0).ops
    seen: set[str] = set()
    repeats = 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    rejects = sum(op.expect_exit == EXIT_NOT_ISOLATED for op in ops)
    assert len(ops) == 32
    assert repeats / len(ops) == 1 / 4
    assert rejects / len(ops) == 1 / 8
    accepted = {op.key: op for op in ops if op.expect_exit == EXIT_OK}
    assert len(accepted) == len(brieskorn_pham()) == 20
    # 3 of the 20 distinct accepted phi reuse the weights of another one
    weights = [op.argv[op.argv.index("--weights") + 1] for op in accepted.values()]
    assert len(weights) - len(set(weights)) == 3


def test_screen_batch_depends_on_seed():
    assert screen_batch(0).ops == screen_batch(0).ops
    assert screen_batch(0).ops != screen_batch(1).ops


def test_wrong_golden_digest_is_a_failure():
    op = VERIFY
    reply = {"exit": EXIT_OK, "sha256": "a" * 64, "seconds": 0.1}
    assert Checker({op.key: {"exit": EXIT_OK, "sha256": "a" * 64}}).check(op, reply)
    wrong = Checker({op.key: {"exit": EXIT_OK, "sha256": "b" * 64}})
    assert not wrong.check(op, reply)
    assert (wrong.attempted, wrong.failed) == (1, 1)


def test_differing_repeat_and_exit_code_are_failures():
    checker = Checker(None)
    assert checker.check(VERIFY, {"exit": EXIT_OK, "sha256": "a" * 64})
    assert not checker.check(VERIFY, {"exit": EXIT_OK, "sha256": "c" * 64})
    assert not checker.check(VERIFY, {"exit": EXIT_NOT_ISOLATED, "sha256": "a" * 64})
    assert (checker.attempted, checker.failed) == (3, 2)


def test_fastest_takes_each_segment_from_its_fastest_execution():
    a = {"seconds": 6.0, "segments": [1.0, 5.0]}
    b = {"seconds": 5.0, "segments": [3.0, 2.0]}
    assert fastest([a, b]) == 3.0
    # executions cut at different points fall back to the fastest whole one
    c = {"seconds": 4.5, "segments": [4.5]}
    assert fastest([a, b, c]) == 4.5


def test_repeated_execution_is_cut_at_the_same_points():
    bench = Bench(Checker(None))
    try:
        passes = [bench.run_pass(ANALYZE, False) for _ in range(2)]
    finally:
        bench.stop_all()
    first, second = (p["replies"][0]["segments"] for p in passes)
    assert len(first) == len(second) > 1


def test_two_lanes_each_run_whole_passes(capsys):
    bench = Bench(Checker(None))
    try:
        metrics = measure(bench, ANALYZE, 0.5, lanes=2)
    finally:
        bench.stop_all()
    assert "passes: 2," in capsys.readouterr().out
    assert (bench.checker.attempted, bench.checker.failed) == (2, 0)
    assert len(bench.probes) == PROBES
    assert metrics["setup_s"][0] == min(bench.probes)
    assert bench.live == []


def test_tracer_replaces_every_binding():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "from poissonsing import cli, cohomology, homology, linalg, operators\n"
        "original = cohomology.brute_force_dims\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
        "assert homology.brute_force_dims is cohomology.brute_force_dims\n"
        "assert cohomology.brute_force_dims is not original\n"
        "assert operators.basis_of is linalg.basis_of\n"
        "assert operators.matrix_of is linalg.matrix_of\n"
    ) % (SRC, os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)


def test_missing_entry_point_is_named():
    sys.path.insert(0, SRC)
    try:
        with pytest.raises(MissingLayer, match="poissonsing.linalg.Echelon.no_such_method"):
            resolve("linalg:Echelon.no_such_method")
        with pytest.raises(MissingLayer, match="poissonsing.milnor.no_such_gate"):
            resolve("milnor:no_such_gate")
    finally:
        sys.path.remove(SRC)
