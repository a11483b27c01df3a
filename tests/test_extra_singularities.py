"""Singularities beyond the Fermat-style catalog: cross-term Jacobian ideals,
the elliptic pencil and its degenerate member, and two independent oracles
for the Milnor data (the weight product formula and the Hilbert series of a
graded complete intersection, expanded by exact long division).

The oracles are Milnor-Orlik (1970): for an isolated weight-homogeneous phi
of degree d, the Poincare polynomial of the Jacobian quotient is
prod_j (1 - t^(d-w_j)) / (1 - t^(w_j)), so mu = prod_j (d - w_j)/w_j, and
the quotient is Gorenstein: its dims are symmetric about the socle
3d - 2|w|.  They need no rank, and they hold on EXTRA and on every accepted
form of the acceptance catalog (MILNOR_FORMS)."""

from __future__ import annotations

import pytest

from poissonsing import (
    NotIsolated,
    PoissonStructure,
    Poly,
    WeightSystem,
    ambient_homology_description,
    brute_force_dims,
    check_isolated,
    closed_form,
    default_form_window,
    default_window,
    homology_dims,
    parse_poly,
    predicted_dims,
    surface_brute_force_dims,
    surface_closed_form,
    surface_homology_description,
    surface_homology_dims,
)
from poissonsing.homology import duality_identity_holds
from poissonsing.suites import run_suite

from .test_catalog import ACCEPTED

EXTRA = [
    # (phi, weights, expected mu)
    ("x^3+y^3+z^3+x*y*z", (1, 1, 1), 8),   # smooth member of the elliptic pencil
    ("x^2*y+y^3+z^2", (2, 2, 3), 4),       # three-branch curve singularity times z^2
    ("x^2*y+y^4+z^2", (3, 2, 4), 5),       # four-branch analogue
    ("x^3+y^3+z^4", (4, 4, 3), 12),
    ("x^2+y^2*z+z^4", (4, 3, 2), 5),
]


# EXTRA, then the accepted forms of the acceptance catalog not in it
MILNOR_FORMS = EXTRA + [
    (phi, weights, mu) for _, phi, weights, mu, _ in ACCEPTED
    if (phi, weights) not in {(text, w) for text, w, _ in EXTRA}
]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    deg_d = len(den) - 1
    quotient = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % den[-1] == 0
        q = c // den[-1]
        quotient[i - deg_d] = q
        for j, cd in enumerate(den):
            num[i - deg_d + j] -= q * cd
    assert all(v == 0 for v in num), "inexact division"
    return quotient


def hilbert_series_oracle(degree: int, weights: tuple[int, int, int]) -> dict[int, int]:
    """Coefficients of prod (t^(d-w_i) - 1) / (t^(w_i) - 1)."""
    num = [1]
    for w in weights:
        factor = [0] * (degree - w + 1)
        factor[0] = -1
        factor[degree - w] = 1
        num = poly_mul(num, factor)
    den = [1]
    for w in weights:
        factor = [0] * (w + 1)
        factor[0] = -1
        factor[w] = 1
        den = poly_mul(den, factor)
    series = poly_divide_exact(num, den)
    return {i: c for i, c in enumerate(series) if c}


@pytest.mark.parametrize("text,weights,mu", MILNOR_FORMS)
def test_milnor_number_against_product_formula(text, weights, mu):
    P = PoissonStructure(parse_poly(text), WeightSystem(weights))
    M = check_isolated(P.phi, P.weights)
    assert M.mu == mu
    product = 1
    for w in weights:
        assert (P.degree - w) % 1 == 0
        product *= P.degree - w
    assert M.mu * (weights[0] * weights[1] * weights[2]) == product


@pytest.mark.parametrize("text,weights,mu", MILNOR_FORMS)
def test_graded_dims_against_hilbert_series(text, weights, mu):
    P = PoissonStructure(parse_poly(text), WeightSystem(weights))
    M = check_isolated(P.phi, P.weights)
    dims = dict(M.graded_dims)
    assert dims == hilbert_series_oracle(P.degree, weights)
    assert sum(dims.values()) == mu
    socle = 3 * P.degree - 2 * P.weight_sum
    assert max(dims) == socle
    assert all(dims.get(socle - i) == n for i, n in dims.items())


@pytest.mark.parametrize("text,weights,mu", EXTRA)
def test_cohomology_matches_for_extra_singularities(text, weights, mu):
    P = PoissonStructure(parse_poly(text), WeightSystem(weights))
    M = check_isolated(P.phi, P.weights)
    window = default_window(P)
    for k in range(4):
        assert brute_force_dims(P, k, window).matches(
            predicted_dims(closed_form(P, M, k), window)
        ), k
        assert surface_brute_force_dims(P, k, window).matches(
            predicted_dims(surface_closed_form(P, M, k), window)
        ), k


@pytest.mark.parametrize("text,weights,mu", EXTRA[:3])
def test_homology_matches_for_extra_singularities(text, weights, mu):
    P = PoissonStructure(parse_poly(text), WeightSystem(weights))
    M = check_isolated(P.phi, P.weights)
    fw = default_form_window(P)
    assert duality_identity_holds(P) == (28, "")
    for k in range(4):
        assert homology_dims(P, k, fw).matches(
            predicted_dims(ambient_homology_description(P, M, k), fw)
        ), k
        assert surface_homology_dims(P, k, fw).matches(
            predicted_dims(surface_homology_description(P, M, k), fw)
        ), k


def test_elliptic_pencil_basis_handles_cross_terms():
    # the Jacobian echelon is not monomial; greedy still picks 8 monomials
    P = PoissonStructure(parse_poly("x^3+y^3+z^3+x*y*z"), WeightSystem((1, 1, 1)))
    M = check_isolated(P.phi, P.weights)
    names = [str(Poly.monomial(m)) for m, _ in M.basis]
    assert names == ["1", "z", "y", "x", "x*z", "x*y", "x^2", "x^3"]


def test_degenerate_pencil_member_is_rejected():
    # this member factors, so its singular locus is one-dimensional
    with pytest.raises(NotIsolated) as err:
        check_isolated(parse_poly("x^3+y^3+z^3-3*x*y*z"), WeightSystem((1, 1, 1)))
    assert err.value.witness_degree == 4


def test_quintic_finite_part_on_a_narrow_window():
    # 6 basis monomials sit in degree deg(phi) - |w| = 2, so H^2 carries a
    # six-dimensional one-shot part next to the free generators
    P = PoissonStructure(parse_poly("x^5+y^5+z^5"), WeightSystem((1, 1, 1)))
    M = check_isolated(P.phi, P.weights)
    assert M.mu == 64
    h2 = closed_form(P, M, 2)
    assert h2.finite_count() == 6
    window = (-3, 7)
    for k in range(4):
        assert brute_force_dims(P, k, window).matches(
            predicted_dims(closed_form(P, M, k), window)
        )


def test_suites_on_an_asymmetric_weight_system():
    P = PoissonStructure(parse_poly("x^2*y+y^4+z^2"), WeightSystem((3, 2, 4)))
    window = default_window(P)
    for res in run_suite(P, "koszul", window)[0] + run_suite(P, "cohomology", window)[0]:
        assert res.passed, res.line()
