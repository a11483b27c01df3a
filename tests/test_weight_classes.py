"""A weight-class oracle: every isolated phi of one (w, d) has the same
sixteen tables.

The predicted tables depend only on d, |w| and the degrees of the u_j, which
by Milnor-Orlik (1970) depend only on (w, d).  So every isolated phi of one
class has the sixteen computed tables and the graded Milnor dims of the
class's sparse form, also when it is not isomorphic to it, which the dense
twins (isomorphic by construction) cannot reach.  The classes are the
weights of EXTRA and two of the acceptance catalog.  Each draws integer
coefficients in [-3, 3] on every monomial of degree d from
random.Random(seed), seed 0, 1, ..., until two draws are accepted; the
seeds the gate rejects are named, and each rejection is checked by a second
route: grad(phi) is then no regular sequence, so the Koszul row fails to be
exact at X^1.
"""

from __future__ import annotations

import random

import pytest

from poissonsing import NotIsolated, PoissonStructure, Poly, WeightSystem, check_isolated
from poissonsing.cohomology import default_window
from poissonsing.poly import monomials_of_degree
from poissonsing.suites import SUITE_FAMILIES, koszul_suite, space_family

from .conftest import structure

# (weights, the class's sparse form, the seeds the gate rejects, the two accepted seeds)
CLASSES = [
    ((1, 1, 1), "x^3+y^3+z^3", (), (0, 1)),
    ((2, 2, 3), "x^2*y+y^3+z^2", (), (0, 1)),
    ((3, 2, 4), "x^2*y+y^4+z^2", (0,), (1, 2)),
    ((4, 4, 3), "x^3+y^3+z^4", (), (0, 1)),
    ((4, 3, 2), "x^2+y^2*z+z^4", (0,), (1, 2)),
    ((4, 3, 6), "x^3+y^4+z^2", (0,), (1, 2)),
    ((15, 10, 6), "x^2+y^3+z^5", (0,), (1, 2)),
]

FAMILIES = [key for keys in SUITE_FAMILIES.values() for key in keys]


def draw(weights: WeightSystem, degree: int, seed: int) -> PoissonStructure:
    """phi with seeded integer coefficients in [-3, 3] on every monomial of the degree."""
    rng = random.Random(seed)
    return PoissonStructure(
        Poly({m: rng.randint(-3, 3) for m in monomials_of_degree(degree, weights)}), weights
    )


def tables(P: PoissonStructure, M) -> list:
    """The computed dims of the sixteen spaces on P's default window."""
    window = default_window(P)
    return [space.computed for key in FAMILIES for space in space_family(P, M, window, *key)]


@pytest.mark.parametrize(
    "weights,sparse,rejected,accepted", CLASSES, ids=[form for _, form, _, _ in CLASSES]
)
def test_every_isolated_phi_of_a_weight_class_has_the_sparse_forms_tables(
    weights, sparse, rejected, accepted
):
    P = structure(sparse, weights)
    M = check_isolated(P.phi, P.weights)
    expected = tables(P, M)
    for seed in range(max(accepted) + 1):
        Q = draw(P.weights, P.degree, seed)
        assert Q.degree == P.degree and Q.phi != P.phi, seed
        if seed in rejected:
            with pytest.raises(NotIsolated):
                check_isolated(Q.phi, Q.weights)
            results = {r.name: r for r in koszul_suite(Q, default_window(Q))}
            assert not results["koszul_second_exactness"].passed, seed
            continue
        assert seed in accepted
        N = check_isolated(Q.phi, Q.weights)
        assert N.graded_dims == M.graded_dims, seed
        assert tables(Q, N) == expected, seed
