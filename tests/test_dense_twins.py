"""Dense twins: a metamorphic oracle that needs no rank.

A twin substitutes into a sparse catalog form a graded unipotent change of
coordinates (x -> x+y, say, when the weights allow it).  The Jacobian
structure {f,g} = det d(f,g,phi)/d(x,y,z) is natural up to the constant
Jacobian determinant, which is 1 here, and A/<phi> maps isomorphically, so
mu, the graded Milnor dims and all sixteen computed (co)homology tables are
those of the sparse form; the u_j and the printed representatives may
differ.  The twins are the first inputs whose operator columns are dense
rows with cross terms, so they exercise basis-choice independence and the
skip licences on matrices that no sparse normal form produces.
"""

from __future__ import annotations

import pytest

from poissonsing import check_isolated, default_window
from poissonsing.suites import run_suite

from .conftest import structure

# sparse form, its twin, the weights, and the substitution that links them
TWINS = [
    ("x^3+y^3+z^3", "x^3+3*x^2*y+3*x*y^2+2*y^3+z^3", (1, 1, 1), "x -> x+y"),
    ("x^2*y+y^4+z^2", "x^2*y+2*y^4+2*y^2*z+z^2", (3, 2, 4), "z -> z+y^2"),
    ("x^2+y^2*z+z^4", "x^2+2*x*z^2+y^2*z+2*z^4", (4, 3, 2), "x -> x+z^2"),
    ("x^3+y^3+z^4", "x^3+6*x^2*y+12*x*y^2+9*y^3+z^4", (4, 4, 3), "x -> x+2y"),
]


def invariants(text, weights):
    """mu, the graded Milnor dims and the sixteen computed tables of every
    suite on the default window; every check must pass."""
    P = structure(text, weights)
    milnor = check_isolated(P.phi, P.weights)
    results, spaces = run_suite(P, "all", default_window(P))
    failed = [r.line() for r in results if not r.passed]
    assert not failed, (text, failed)
    tables = {
        (block, side, k): space.computed.as_dict()
        for (block, side), family in spaces.items()
        for k, space in enumerate(family)
    }
    assert len(tables) == 16
    return milnor.mu, milnor.graded_dims, tables


@pytest.mark.parametrize(
    "sparse,twin,weights", [t[:3] for t in TWINS], ids=["%s, %s" % (t[0], t[3]) for t in TWINS]
)
def test_a_dense_twin_has_the_invariants_of_its_sparse_form(sparse, twin, weights):
    assert invariants(twin, weights) == invariants(sparse, weights)
