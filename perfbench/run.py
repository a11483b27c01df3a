"""Benchmark of poissonsing: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  Workloads are defined in workloads.py
and explained in BENCHMARK.json.  Only the standard library is used, and at
most two processes of the benchmark are busy at a time.

--trace 0 runs the workload's operation list (a pass) again and again, in
two lanes side by side (one where only one CPU is usable), as long as one
more pass is predicted to end within S seconds, and reports
  wall_s       the time spent inside cli.main by one pass (no interpreter
               start or import), at the fastest speed the run saw: each
               execution is cut into segments (see worker.py), each segment
               counts with its fastest execution, summed over the pass;
  setup_s      fastest of 24 fresh interpreter starts, spread over the run,
               from spawn until poissonsing.cli is imported and its parser
               is built;
  peak_rss_mb  largest ru_maxrss of the workers that ran the operations.
--trace 1 runs one untraced pass and one traced pass of the same operations
and reports the per-layer metrics of the traced pass (see tracer.py), plus
trace.overhead_s, the traced minus the untraced wall time.

Every execution is checked: the exit code must be the expected one, stdout
must hash to the recorded digest when the seed is the default seed 0
(golden.json), and two executions of one operation in a run must print the
same bytes.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the run
context (Python version, nproc, /proc/loadavg and /proc/pressure/cpu before
and after the run) and every metric by name and unit, with the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time

from tracer import LAYERS
from workloads import WORKLOADS, Op, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
PROBES = 24
# Worker processes that run passes side by side.  The host's contention
# comes and goes on each CPU on its own, so two lanes see twice as many
# moments, and the fastest execution of each segment is more often one that
# ran uncontended.
LANES = 2


class BenchError(RuntimeError):
    """A worker or probe misbehaved; the run stops and reports failure."""


class Deadline(BaseException):
    """The run would not end within the time the caller allows."""


def read_context() -> dict:
    out = {}
    for key, path in (("loadavg", "/proc/loadavg"), ("pressure_cpu", "/proc/pressure/cpu")):
        try:
            with open(path) as f:
                out[key] = " | ".join(f.read().split("\n")).strip(" |")
        except OSError:
            out[key] = None
    return out


def reap(proc: subprocess.Popen) -> int:
    """Wait for proc; return its ru_maxrss in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


class Checker:
    """Counts failed executions: a wrong exit code, a stdout digest other
    than the golden one, or stdout that differs from an earlier execution of
    the same operation in this run."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op: Op, reply: dict) -> bool:
        self.attempted += 1
        problems = []
        if reply["exit"] != op.expect_exit:
            problems.append("exit %r, expected %d" % (reply["exit"], op.expect_exit))
        if self.golden is not None:
            want = self.golden.get(op.key)
            if want is None:
                problems.append("no golden digest recorded")
            elif (want["exit"], want["sha256"]) != (reply["exit"], reply["sha256"]):
                problems.append("exit code or stdout digest differs from the golden")
        earlier = self.seen.setdefault(op.key, reply["sha256"])
        if earlier != reply["sha256"]:
            problems.append("stdout differs from an earlier execution")
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (op.key, "; ".join(problems)))
        return not problems

    def fail(self, op: Op, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append("%s: %s" % (op.key, why))


class Bench:
    """One benchmark run; owns every process it starts."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.live: list[subprocess.Popen] = []
        self.probes: list[float] = []
        self.lock = threading.Lock()

    def spawn(self, *flags: str, stdin=None) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, WORKER, *flags], cwd=ROOT, text=True,
            stdin=stdin, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        self.live.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen) -> int:
        proc.stdout.close()
        if proc.stdin:
            proc.stdin.close()
        rss = reap(proc)
        self.live.remove(proc)
        return rss

    def kill_all(self) -> None:
        for proc in list(self.live):
            proc.kill()

    def stop_all(self) -> None:
        self.kill_all()
        for proc in list(self.live):
            self.finish(proc)

    @staticmethod
    def read(proc: subprocess.Popen):
        line = proc.stdout.readline()
        if not line:
            raise BenchError("worker %d ended without answering" % proc.pid)
        try:
            return json.loads(line)
        except ValueError:
            raise BenchError("worker %d wrote %r" % (proc.pid, line[:200])) from None

    def probe(self) -> None:
        start = time.perf_counter()
        proc = self.spawn("--probe")
        ready = self.read(proc)
        elapsed = time.perf_counter() - start
        self.finish(proc)
        if ready != "ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed")
        self.probes.append(elapsed)

    def start_worker(self, trace: bool) -> subprocess.Popen:
        proc = self.spawn(*(("--trace",) if trace else ()), stdin=subprocess.PIPE)
        if self.read(proc) != "ready":
            raise BenchError("worker did not start")
        return proc

    def stop_worker(self, proc: subprocess.Popen, finals: list) -> int:
        """End the worker's input, keep its totals; return its ru_maxrss."""
        proc.stdin.close()
        finals.append(self.read(proc))
        return self.finish(proc)

    def execute(self, proc: subprocess.Popen, op: Op) -> dict:
        """Run one operation and check it; return the worker's reply."""
        proc.stdin.write(json.dumps(list(op.argv)) + "\n")
        proc.stdin.flush()
        try:
            reply = self.read(proc)
        except BenchError as exc:
            with self.lock:
                self.checker.fail(op, str(exc))
            raise
        with self.lock:
            if not self.checker.check(op, reply) and "error" in reply:
                print(reply["error"], file=sys.stderr)
        return reply

    def run_pass(self, workload: Workload, trace: bool, after_op=None) -> dict:
        """Run the operations in order, each in a new worker or all in one
        as the workload says.  Returns the replies, the largest ru_maxrss
        and the workers' totals."""
        replies, finals, rss = [], [], 0
        proc = None
        for op in workload.ops:
            if proc is None:
                proc = self.start_worker(trace)
            replies.append(self.execute(proc, op))
            if workload.fresh:
                rss = max(rss, self.stop_worker(proc, finals))
                proc = None
            if after_op:
                after_op()
        if proc is not None:
            rss = max(rss, self.stop_worker(proc, finals))
        return {"replies": replies, "rss_kib": rss, "finals": finals}


def fastest(executions: list[dict]) -> float:
    """Seconds of one operation at the fastest speed seen: per segment the
    fastest execution, summed.  If the executions were not cut at the same
    points, the fastest whole execution."""
    cuts = {len(e["segments"]) for e in executions}
    if len(cuts) != 1:
        return min(e["seconds"] for e in executions)
    return sum(min(column) for column in zip(*(e["segments"] for e in executions)))


def merge_finals(finals: list[dict]) -> tuple[dict, dict]:
    """Sum worker totals: (cache statistics, trace totals)."""
    caches: dict[str, int] = {}
    trace = {"self_s": {}, "calls": {}, "counters": {}}
    for final in finals:
        for key, value in final["caches"].items():
            caches[key] = caches.get(key, 0) + value
        for part, values in (final["trace"] or {}).items():
            for key, value in values.items():
                if key == "linalg.entry_bits_max":
                    trace[part][key] = max(trace[part].get(key, 0), value)
                else:
                    trace[part][key] = trace[part].get(key, 0) + value
    return caches, trace


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(traced: dict, untraced: dict) -> dict:
    caches, trace = merge_finals(traced["finals"])
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
    out = {layer + "_s": (self_s.get(layer, 0.0), "s") for layer in LAYERS}
    out.update({
        "linalg.echelon_inserts": (calls.get("linalg.echelon", 0), "count"),
        "linalg.matrices_built": (calls.get("linalg.matrix_build", 0), "count"),
        "linalg.matrix_nnz": (counters.get("linalg.matrix_nnz", 0), "count"),
        "linalg.matrix_cells": (counters.get("linalg.matrix_cells", 0), "count"),
        "linalg.entry_bits_max": (counters.get("linalg.entry_bits_max", 0), "bits"),
        "linalg.basis_calls": (calls.get("linalg.basis", 0), "count"),
        "linalg.basis_hit_ratio": (
            _ratio(caches["basis_hits"], caches["basis_misses"]), "fraction"),
        "operators.cache_hit_ratio": (
            _ratio(caches["operators_hits"], caches["operators_misses"]), "fraction"),
        "operators.cache_entries": (caches["operators_entries"], "count"),
        "milnor.gate_calls": (calls.get("milnor.gate", 0), "count"),
        "milnor.rejected": (counters.get("milnor.rejected", 0), "count"),
        "trace.overhead_s": (wall(traced) - wall(untraced), "s"),
    })
    return out


def wall(one_pass: dict) -> float:
    return sum(reply["seconds"] for reply in one_pass["replies"])


def measure(bench: Bench, workload: Workload, seconds: float, lanes: int) -> dict:
    """Each lane runs whole passes while its next one, taking as long as its
    last, ends within the budget.  The first lane also runs the set-up
    probes, spread over the same time."""
    start = time.perf_counter()
    end = start + seconds
    passes: list[dict] = []
    errors: list[Exception] = []

    def probe_when_due() -> None:
        due = PROBES * (time.perf_counter() - start) / seconds
        while len(bench.probes) < min(PROBES, due):
            bench.probe()

    def lane(after_op) -> None:
        try:
            while True:
                begin = time.perf_counter()
                passes.append(bench.run_pass(workload, False, after_op))
                now = time.perf_counter()
                if now + (now - begin) > end:
                    return
        except (BenchError, OSError) as exc:
            errors.append(exc)

    threads = [threading.Thread(target=lane, args=(probe_when_due if i == 0 else None,))
               for i in range(lanes)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    except Deadline:
        bench.kill_all()
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[0]
    while len(bench.probes) < PROBES:
        bench.probe()
    executions = [list(e) for e in zip(*(p["replies"] for p in passes))]
    print("passes: %d, pass walls: %s s, fastest whole executions: %.4f s" % (
        len(passes), ", ".join("%.4f" % wall(p) for p in passes),
        sum(min(r["seconds"] for r in e) for e in executions)))
    return {
        "wall_s": (sum(fastest(e) for e in executions), "s"),
        "setup_s": (min(bench.probes), "s"),
        "peak_rss_mb": (max(p["rss_kib"] for p in passes) / 1024.0, "MiB"),
    }


def measure_traced(bench: Bench, workload: Workload) -> dict:
    untraced = bench.run_pass(workload, False)
    traced = bench.run_pass(workload, True)
    return layer_metrics(traced, untraced)


def load_golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def record_golden(workload: Workload, checker: Checker) -> None:
    golden = load_golden() if os.path.exists(GOLDEN) else {}
    for op in workload.ops:
        golden[op.key] = {"exit": op.expect_exit, "sha256": checker.seen[op.key]}
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def _on_deadline(signum, frame):
    raise Deadline()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the default seed's digests to golden.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "poissonsing", "cli.py")):
        print("no poissonsing sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.record and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record needs --seed %d --trace 0" % DEFAULT_SEED)

    context = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "lanes": min(LANES, len(os.sched_getaffinity(0))),
        "before": read_context(),
    }
    use_golden = args.seed == DEFAULT_SEED and not args.record
    checker = Checker(load_golden() if use_golden else None)
    workload = WORKLOADS[args.workload](args.seed)
    bench = Bench(checker)
    metrics: dict = {}
    complete = False
    signal.signal(signal.SIGALRM, _on_deadline)
    # passes end within the budget, give or take one pass; traced runs
    # make two passes whatever the budget
    signal.alarm(int(2 * args.seconds) + 60)
    try:
        if args.trace:
            metrics = measure_traced(bench, workload)
        else:
            metrics = measure(bench, workload, args.seconds, context["lanes"])
        complete = True
    except (BenchError, OSError, Deadline) as exc:
        checker.problems.append("run stopped: %s" % (str(exc) or type(exc).__name__))
    finally:
        signal.alarm(0)
        bench.stop_all()
    context["after"] = read_context()
    correct = complete and checker.failed == 0
    if args.record and correct:
        record_golden(workload, checker)

    print("context " + json.dumps(context, sort_keys=True))
    for problem in checker.problems:
        print("FAILED " + problem)
    print("%s: error_rate %.4f fraction (%d of %d executions failed)" % (
        workload.name, checker.failed / max(checker.attempted, 1),
        checker.failed, checker.attempted))
    for name, (value, unit) in sorted(metrics.items()):
        print("%s: %s %r %s" % (workload.name, name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
