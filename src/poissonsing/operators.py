"""Cached exact matrices of the graded operators used by the engines.

Everything here is a pure function of (structure, degree); results are
memoized because ranks of the same graded operator are reused by cocycle
counts, coboundary counts, Koszul exactness checks and the homology bridge.
Degrees are derivation degrees for X-spaces and form degrees for Omega-spaces;
horizontal operators (anything involving grad(phi) or multiplication by phi)
raise the degree by deg(phi), the coboundaries by deg(phi) - |w|, and the
vertical de Rham operators preserve it.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import GradedOperatorMatrix, basis_of, matrix_of
from .poisson import PoissonStructure
from .poly import WeightSystem
from .vectorcalc import cross, curl, divergence, dot, grad


@lru_cache(maxsize=None)
def delta_matrix(P: PoissonStructure, k: int, i: int) -> GradedOperatorMatrix:
    """Matrix of delta^k from X^k at degree i into X^{k+1} at degree i+N."""
    if k not in (0, 1, 2):
        raise ValueError("delta matrices exist for k in 0..2")
    n = P.coboundary_degree
    src = basis_of("X%d" % k, i, P.weights)
    tgt = basis_of("X%d" % (k + 1), i + n, P.weights)
    return matrix_of(lambda c: P.delta(k, c), src, tgt)


@lru_cache(maxsize=None)
def delta_rank(P: PoissonStructure, k: int, i: int) -> int:
    if k < 0 or k >= 3:
        return 0
    src = basis_of("X%d" % k, i, P.weights)
    if src.dim == 0:
        return 0
    return delta_matrix(P, k, i).rank()


@lru_cache(maxsize=None)
def boundary_matrix(P: PoissonStructure, k: int, i: int) -> GradedOperatorMatrix:
    """Matrix of the k-th boundary from Omega^k at form degree i."""
    if k not in (1, 2, 3):
        raise ValueError("boundary matrices exist for k in 1..3")
    n = P.coboundary_degree
    src = basis_of("Omega%d" % k, i, P.weights)
    tgt = basis_of("Omega%d" % (k - 1), i + n, P.weights)
    return matrix_of(lambda c: P.boundary(k, c), src, tgt)


@lru_cache(maxsize=None)
def mult_phi_matrix(P: PoissonStructure, kind: str, i: int) -> GradedOperatorMatrix:
    """Multiplication by phi from kind at degree i to kind at degree i+deg(phi)."""
    src = basis_of(kind, i, P.weights)
    tgt = basis_of(kind, i + P.degree, P.weights)
    phi = P.phi
    return matrix_of(lambda c: c * phi, src, tgt)


@lru_cache(maxsize=None)
def mult_grad_phi_matrix(P: PoissonStructure, i: int) -> GradedOperatorMatrix:
    """f -> f*grad(phi) from X^3 at degree i into X^2 at degree i+deg(phi)."""
    src = basis_of("X3", i, P.weights)
    tgt = basis_of("X2", i + P.degree, P.weights)
    return matrix_of(lambda f: P.nabla_phi * f, src, tgt)


@lru_cache(maxsize=None)
def cross_grad_phi_matrix(P: PoissonStructure, i: int) -> GradedOperatorMatrix:
    """v -> v x grad(phi) from X^2 at degree i into X^1 at degree i+deg(phi)."""
    src = basis_of("X2", i, P.weights)
    tgt = basis_of("X1", i + P.degree, P.weights)
    return matrix_of(lambda v: cross(v, P.nabla_phi), src, tgt)


@lru_cache(maxsize=None)
def dot_grad_phi_matrix(P: PoissonStructure, i: int) -> GradedOperatorMatrix:
    """v -> v . grad(phi) from X^1 at degree i into X^0 at degree i+deg(phi)."""
    src = basis_of("X1", i, P.weights)
    tgt = basis_of("X0", i + P.degree, P.weights)
    return matrix_of(lambda v: dot(v, P.nabla_phi), src, tgt)


@lru_cache(maxsize=None)
def grad_matrix(w: WeightSystem, i: int) -> GradedOperatorMatrix:
    """Gradient X^3 -> X^2, a degree-0 vertical operator."""
    return matrix_of(grad, basis_of("X3", i, w), basis_of("X2", i, w))


@lru_cache(maxsize=None)
def curl_matrix(w: WeightSystem, i: int) -> GradedOperatorMatrix:
    """Curl X^2 -> X^1, degree 0."""
    return matrix_of(curl, basis_of("X2", i, w), basis_of("X1", i, w))


@lru_cache(maxsize=None)
def div_matrix(w: WeightSystem, i: int) -> GradedOperatorMatrix:
    """Divergence X^1 -> X^0, degree 0."""
    return matrix_of(divergence, basis_of("X1", i, w), basis_of("X0", i, w))


# ---------------------------------------------------------------------------
# Relations presenting the form spaces of the quotient algebra A/<phi>
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def omega_relation_elements(P: PoissonStructure, k: int, i: int) -> tuple:
    """Generators of the degree-i relations defining Omega^k of A/<phi>.

    k=0: phi*A;  k=1: A*dphi + phi*Omega^1;  k=2: dphi ^ Omega^1 + phi*Omega^2;
    k=3: dphi ^ Omega^2 + phi*Omega^3 (the Jacobian ideal piece).
    """
    w = P.weights
    d = P.degree
    phi = P.phi
    gens: list = []
    if k == 0:
        for e in basis_of("Omega0", i - d, w).elements:
            gens.append(e * phi)
    elif k == 1:
        for e in basis_of("Omega0", i - d, w).elements:
            gens.append(P.nabla_phi * e)
        for e in basis_of("Omega1", i - d, w).elements:
            gens.append(e * phi)
    elif k == 2:
        for e in basis_of("Omega1", i - d, w).elements:
            gens.append(cross(P.nabla_phi, e))
        for e in basis_of("Omega2", i - d, w).elements:
            gens.append(e * phi)
    elif k == 3:
        for e in basis_of("Omega2", i - d, w).elements:
            gens.append(dot(P.nabla_phi, e))
        for e in basis_of("Omega3", i - d, w).elements:
            gens.append(e * phi)
    else:
        raise ValueError("k must be in 0..3")
    return tuple(gens)


@lru_cache(maxsize=None)
def omega_relation_columns(P: PoissonStructure, k: int, i: int) -> tuple:
    target = basis_of("Omega%d" % k, i, P.weights)
    return tuple(target.coords_of(g) for g in omega_relation_elements(P, k, i))


@lru_cache(maxsize=None)
def omega_relation_rank(P: PoissonStructure, k: int, i: int) -> int:
    from .linalg import rank_of_columns

    return rank_of_columns(omega_relation_columns(P, k, i))
