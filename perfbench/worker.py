"""Worker process of the benchmark: runs poissonsing CLI calls in-process.

    python3 perfbench/worker.py [--trace | --probe]

The worker imports poissonsing.cli from the src/ directory next to this
benchmark, builds the CLI parser and writes the line "ready".  With --probe it
exits there (the set-up probe).  Otherwise it reads one JSON argv list per
line from stdin, runs cli.main on it with stdout and stderr captured, and
answers with one JSON line: exit code, seconds spent in cli.main, those
seconds split into segments, and the SHA-256 of the captured stdout.  At end
of input it writes one last JSON line with the lru_cache statistics and, with
--trace, the per-layer totals.

A segment ends where the garbage collector starts a collection.  The worker
runs gc.collect() before each call, so a deterministic call (workers run
with a fixed PYTHONHASHSEED) is cut at the same points of its work every
time, and two executions can be compared segment by segment.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _reply(stream, payload) -> None:
    stream.write(json.dumps(payload, sort_keys=True) + "\n")
    stream.flush()


def run_one(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    clock = time.perf_counter
    marks: list[float] = []

    def mark(phase, info):
        if phase == "start":
            marks.append(clock())

    gc.collect()
    gc.callbacks.append(mark)
    start = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
    end = clock()
    gc.callbacks.remove(mark)
    points = [start, *marks, end]
    data = out.getvalue().encode()
    reply = {
        "exit": code,
        "seconds": end - start,
        "segments": [b - a for a, b in zip(points, points[1:])],
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    if code == "exception":
        reply["error"] = err.getvalue()[-2000:]
    return reply


def main(args: list[str]) -> int:
    sys.path.insert(0, SRC)
    from poissonsing import cli

    cli.build_parser()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("poissonsing imported from %s, not from %s" % (cli.__file__, SRC),
              file=sys.stderr)
        return 2
    channel = sys.stdout
    _reply(channel, "ready")
    if "--probe" in args:
        return 0

    from poissonsing import linalg
    from tracer import Tracer, cache_stats

    basis_of = linalg.basis_of
    tracer = Tracer().install() if "--trace" in args else None
    for line in sys.stdin:
        _reply(channel, run_one(cli, json.loads(line)))
    _reply(channel, {
        "caches": cache_stats(basis_of),
        "trace": tracer.snapshot() if tracer else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
