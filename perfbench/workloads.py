"""The benchmark's workloads: each turns a seed into a list of operations.

An operation is one poissonsing CLI call (an argv list) with the exit code
it must return.  `fresh` workloads run every operation in a new worker
process; the others run the whole list in one long-lived worker, so the
package's lru_caches live across operations.  BENCHMARK.json records why
each workload exists.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

EXIT_OK = 0
EXIT_NOT_ISOLATED = 3


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_exit: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    fresh: bool
    ops: tuple[Op, ...]


def _analyze(phi: str, weights: str, seed: int, *extra: str) -> Op:
    return Op(("analyze", "--phi", phi, "--weights", weights, "--seed", str(seed),
               "--format", "json", *extra), EXIT_OK)


def _verify(phi: str, weights: tuple[int, int, int], expect_exit: int) -> Op:
    return Op(("verify", "--suite", "cohomology", "--phi", phi,
               "--weights", "%d,%d,%d" % weights), expect_exit)


# Each analyze stops one Casimir period past the socle, at degree
# 4*deg(phi) - 2*|w|: every generator of the closed forms is still inside the
# window, which by default goes on for a second period.  This keeps a pass
# short, so that a run holds many executions of it.
def fermat_deep(seed: int) -> Workload:
    return Workload("fermat-deep", True, (
        _analyze("x^5+y^5+z^5", "1,1,1", seed, "--max-degree", "14"),))


# phi, weights, last degree; 50 random cases per identity family instead of
# the default 200, for the same reason.
CATALOG_MIXED = (
    ("x^3+y^3+z^3+x*y*z", "1,1,1", 6),
    ("x^2*y+y^3+z^2", "2,2,3", 10),
    ("x^2+y^3+z^7", "21,14,6", 86),
)


def catalog_mixed(seed: int) -> Workload:
    return Workload("catalog-mixed", True, tuple(
        _analyze(phi, w, seed, "--max-degree", str(top), "--cases", "50")
        for phi, w, top in CATALOG_MIXED))


def brieskorn_pham() -> list[tuple[str, tuple[int, int, int]]]:
    """x^a+y^b+z^c, 2 <= a <= b <= c <= 5, with weights lcm/a, lcm/b, lcm/c."""
    out = []
    for a, b, c in itertools.combinations_with_replacement(range(2, 6), 3):
        n = math.lcm(a, b, c)
        out.append(("x^%d+y^%d+z^%d" % (a, b, c), (n // a, n // b, n // c)))
    return out


def missing_variable() -> list[tuple[str, tuple[int, int, int]]]:
    """Two-variable x^a+y^b (and permutations): the singular locus is a line."""
    out = []
    for a, b in itertools.combinations_with_replacement(range(2, 6), 2):
        n = math.lcm(a, b)
        out.append(("x^%d+y^%d" % (a, b), (n // a, n // b, 1)))
        out.append(("x^%d+z^%d" % (a, b), (n // a, 1, n // b)))
        out.append(("y^%d+z^%d" % (a, b), (1, n // a, n // b)))
    return out


# screen-batch: every Brieskorn-Pham phi once, plus repeats of earlier
# accepted phi (1/4 of the 32 operations) and gate rejections (1/8).
SCREEN_REPEATS = 8
SCREEN_REJECTS = 4


def screen_batch(seed: int) -> Workload:
    """The seed fixes the order, which phi repeat and where, and which
    rejections appear; the set of distinct accepted phi is always the same,
    so the work per run barely depends on the seed."""
    rng = random.Random(seed)
    accepted = [_verify(phi, w, EXIT_OK) for phi, w in brieskorn_pham()]
    rng.shuffle(accepted)
    rejected = [_verify(phi, w, EXIT_NOT_ISOLATED)
                for phi, w in rng.sample(missing_variable(), SCREEN_REJECTS)]
    ops = list(accepted)
    for op in rejected:
        ops.insert(rng.randrange(len(ops) + 1), op)
    for _ in range(SCREEN_REPEATS):
        op = rng.choice(accepted)
        ops.insert(rng.randrange(ops.index(op) + 1, len(ops) + 1), op)
    return Workload("screen-batch", False, tuple(ops))


WORKLOADS = {
    "fermat-deep": fermat_deep,
    "catalog-mixed": catalog_mixed,
    "screen-batch": screen_batch,
}
