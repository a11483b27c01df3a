"""Every operator matrix against the operator applied to each basis element.

The engine fills matrices from first-order symbols (linalg.matrix_of); the
oracle here evaluates the operator itself on every source basis element of
every graded piece of the default windows and reads off target coordinates.
"""

from __future__ import annotations

import pytest

from poissonsing import (
    DegreeMismatch,
    WeightSystem,
    basis_of,
    cross,
    curl,
    default_form_window,
    default_window,
    divergence,
    dot,
    grad,
    matrix_of,
    parse_poly,
    symbol_of,
)
from poissonsing.operators import (
    boundary_matrix,
    cross_grad_phi_matrix,
    curl_matrix,
    delta_matrix,
    div_matrix,
    dot_grad_phi_matrix,
    grad_matrix,
    mult_grad_phi_matrix,
    mult_phi_matrix,
    omega_relation_columns,
    operator_symbol,
)

from .conftest import basis_element, oracle_columns, structure


def _window(window):
    lo, hi = window
    return range(lo, hi + 1)


def _check(matrix, op):
    assert matrix.columns == oracle_columns(op, matrix.source, matrix.target)


def test_coboundaries(catalog_structures):
    for P, _ in catalog_structures:
        for i in _window(default_window(P)):
            for k in (0, 1, 2):
                _check(delta_matrix(P, k, i), lambda c: P.delta(k, c))


def test_boundaries(catalog_structures):
    for P, _ in catalog_structures:
        for i in _window(default_form_window(P)):
            for k in (1, 2, 3):
                _check(boundary_matrix(P, k, i), lambda c: P.boundary(k, c))


def test_horizontal_products(catalog_structures):
    for P, _ in catalog_structures:
        nabla = P.nabla_phi
        for i in _window(default_window(P)):
            for kind in ("X0", "X1", "X2", "X3"):
                _check(mult_phi_matrix(P, kind, i), lambda c: c * P.phi)
            _check(mult_grad_phi_matrix(P, i), lambda f: nabla * f)
            _check(cross_grad_phi_matrix(P, i), lambda v: cross(v, nabla))
            _check(dot_grad_phi_matrix(P, i), lambda v: dot(v, nabla))
        for i in _window(default_form_window(P)):
            for kind in ("Omega0", "Omega1", "Omega2", "Omega3"):
                _check(mult_phi_matrix(P, kind, i), lambda c: c * P.phi)


def test_vertical_operators(catalog_structures):
    for w in sorted({P.weights for P, _ in catalog_structures}, key=str):
        lo = -w.weight_sum
        for i in range(lo, lo + 20):
            _check(grad_matrix(w, i), grad)
            _check(curl_matrix(w, i), curl)
            _check(div_matrix(w, i), divergence)


def _relation_generators(P, k, i):
    """The generators of the degree-i relations of Omega^k of A/<phi>, each
    evaluated as a Poly/VecPoly, in the order the engine presents them."""
    w, d, nabla = P.weights, P.degree, P.nabla_phi

    def elements(kind):
        b = basis_of(kind, i - d, w)
        return [basis_element(b, j) for j in range(b.dim)]

    wedge = {
        1: lambda e: nabla * e,
        2: lambda e: cross(nabla, e),
        3: lambda e: dot(nabla, e),
    }
    gens = []
    if k:
        gens += [wedge[k](e) for e in elements("Omega%d" % (k - 1))]
    gens += [e * P.phi for e in elements("Omega%d" % k)]
    return gens


def test_relation_presentations(catalog_structures):
    for P, _ in catalog_structures:
        for i in _window(default_form_window(P)):
            for k in (0, 1, 2, 3):
                target = basis_of("Omega%d" % k, i, P.weights)
                expected = [target.coords_of(g) for g in _relation_generators(P, k, i)]
                assert list(omega_relation_columns(P, k, i)) == expected


def test_second_order_operator_is_rejected():
    with pytest.raises(ValueError, match="order at most one"):
        symbol_of(lambda f: f.partial(0).partial(0), 1)
    with pytest.raises(ValueError, match="order at most one"):
        symbol_of(lambda v: grad(divergence(v)), 3)


def test_rational_coefficients_are_probed_exactly():
    q = parse_poly("x^2*y - 3*z^3 + 1/2*x*y*z")
    r = parse_poly("x^3*y - 2/3*y*z^3")

    def op(f):
        return f * q + r * f.partial(1)

    w = WeightSystem((1, 1, 1))
    source, target = basis_of("A", 4, w), basis_of("A", 7, w)
    assert matrix_of(symbol_of(op, 1), source, target).columns == oracle_columns(
        op, source, target
    )


def test_wrong_target_degree_raises():
    P = structure("x^3+y^3+z^3", (1, 1, 1))
    symbol = operator_symbol(P, "phi", 1)
    with pytest.raises(DegreeMismatch, match=r"component 1 does not lie in X0 at degree 4"):
        matrix_of(symbol, basis_of("X0", 0, P.weights), basis_of("X0", 4, P.weights))


def test_wrong_arity_raises():
    P = structure("x^3+y^3+z^3", (1, 1, 1))
    with pytest.raises(DegreeMismatch, match="expected a vector cochain for X2"):
        matrix_of(operator_symbol(P, "phi", 1), basis_of("X0", 0, P.weights),
                  basis_of("X2", 3, P.weights))
    with pytest.raises(DegreeMismatch):
        matrix_of(operator_symbol(P, "phi", 1), basis_of("X1", 0, P.weights),
                  basis_of("X1", 3, P.weights))
