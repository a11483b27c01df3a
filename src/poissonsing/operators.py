"""Cached exact matrices of the graded operators used by the engines.

Everything here is a pure function of (structure, degree); results are
memoized because ranks of the same graded operator are reused by cocycle
counts, coboundary counts, Koszul exactness checks and the homology bridge.
Degrees are derivation degrees for X-spaces and form degrees for Omega-spaces;
horizontal operators (anything involving grad(phi) or multiplication by phi)
raise the degree by deg(phi), the coboundaries by deg(phi) - |w|, and the
vertical de Rham operators preserve it.

Every operator here (the coboundaries, the boundaries, multiplication by phi,
the grad(phi) products and grad/curl/div) is a linear differential operator
of order at most one, so its symbol is extracted once per structure
(operator_symbol) and every graded matrix is filled from it by linalg's
matrix_of.  The relations presenting the form spaces of A/<phi> are the
columns of such matrices too.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import (
    GradedBasis,
    GradedOperatorMatrix,
    Symbol,
    basis_of,
    matrix_of,
    rank_of_columns,
    symbol_of,
)
from .poisson import PoissonStructure
from .poly import WeightSystem
from .vectorcalc import cross, curl, divergence, dot, grad


def _operator(P: PoissonStructure | None, name: str):
    if P is None:
        return {"grad": grad, "curl": curl, "div": divergence}[name]
    nabla = P.nabla_phi
    return {
        "delta0": P.delta0,
        "delta1": P.delta1,
        "delta2": P.delta2,
        "boundary1": lambda c: P.boundary(1, c),
        "boundary2": lambda c: P.boundary(2, c),
        "boundary3": lambda c: P.boundary(3, c),
        "phi": lambda c: c * P.phi,
        "grad_phi": lambda f: nabla * f,
        "cross_grad_phi": lambda v: cross(v, nabla),
        "grad_phi_cross": lambda v: cross(nabla, v),
        "dot_grad_phi": lambda v: dot(v, nabla),
    }[name]


@lru_cache(maxsize=None)
def operator_symbol(P: PoissonStructure | None, name: str, source_components: int) -> Symbol:
    """Symbol of a named operator on 1- or 3-component inputs, extracted once
    per structure (P is None for the vertical operators grad, curl, div)."""
    return symbol_of(_operator(P, name), source_components)


def _matrix(
    P: PoissonStructure | None, name: str, src: GradedBasis, tgt: GradedBasis
) -> GradedOperatorMatrix:
    return matrix_of(operator_symbol(P, name, len(src.monomials)), src, tgt)


@lru_cache(maxsize=None)
def delta_matrix(P: PoissonStructure, k: int, i: int) -> GradedOperatorMatrix:
    """Matrix of delta^k from X^k at degree i into X^{k+1} at degree i+N."""
    if k not in (0, 1, 2):
        raise ValueError("delta matrices exist for k in 0..2")
    n = P.coboundary_degree
    src = basis_of("X%d" % k, i, P.weights)
    tgt = basis_of("X%d" % (k + 1), i + n, P.weights)
    return _matrix(P, "delta%d" % k, src, tgt)


def delta_rank(P: PoissonStructure, k: int, i: int) -> int:
    """rank of delta^k at degree i; 0 for k outside 0..2 (delta^{-1} and
    delta^3 are zero maps) and for an empty source.  The rank itself is
    memoized on the cached delta_matrix."""
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
    return _matrix(P, "boundary%d" % k, src, tgt)


@lru_cache(maxsize=None)
def mult_phi_matrix(P: PoissonStructure, kind: str, i: int) -> GradedOperatorMatrix:
    """Multiplication by phi from kind at degree i to kind at degree i+deg(phi)."""
    src = basis_of(kind, i, P.weights)
    tgt = basis_of(kind, i + P.degree, P.weights)
    return _matrix(P, "phi", src, tgt)


@lru_cache(maxsize=None)
def mult_grad_phi_matrix(P: PoissonStructure, i: int) -> GradedOperatorMatrix:
    """f -> f*grad(phi) from X^3 at degree i into X^2 at degree i+deg(phi)."""
    src = basis_of("X3", i, P.weights)
    tgt = basis_of("X2", i + P.degree, P.weights)
    return _matrix(P, "grad_phi", src, tgt)


@lru_cache(maxsize=None)
def cross_grad_phi_matrix(P: PoissonStructure, i: int) -> GradedOperatorMatrix:
    """v -> v x grad(phi) from X^2 at degree i into X^1 at degree i+deg(phi)."""
    src = basis_of("X2", i, P.weights)
    tgt = basis_of("X1", i + P.degree, P.weights)
    return _matrix(P, "cross_grad_phi", src, tgt)


@lru_cache(maxsize=None)
def dot_grad_phi_matrix(P: PoissonStructure, i: int) -> GradedOperatorMatrix:
    """v -> v . grad(phi) from X^1 at degree i into X^0 at degree i+deg(phi)."""
    src = basis_of("X1", i, P.weights)
    tgt = basis_of("X0", i + P.degree, P.weights)
    return _matrix(P, "dot_grad_phi", src, tgt)


@lru_cache(maxsize=None)
def grad_matrix(w: WeightSystem, i: int) -> GradedOperatorMatrix:
    """Gradient X^3 -> X^2, a degree-0 vertical operator."""
    return _matrix(None, "grad", basis_of("X3", i, w), basis_of("X2", i, w))


@lru_cache(maxsize=None)
def curl_matrix(w: WeightSystem, i: int) -> GradedOperatorMatrix:
    """Curl X^2 -> X^1, degree 0."""
    return _matrix(None, "curl", basis_of("X2", i, w), basis_of("X1", i, w))


@lru_cache(maxsize=None)
def div_matrix(w: WeightSystem, i: int) -> GradedOperatorMatrix:
    """Divergence X^1 -> X^0, degree 0."""
    return _matrix(None, "div", basis_of("X1", i, w), basis_of("X0", i, w))


# ---------------------------------------------------------------------------
# Relations presenting the form spaces of the quotient algebra A/<phi>
# ---------------------------------------------------------------------------


# the generator of each relation space besides phi*Omega^k: wedging with
# d(phi) from Omega^{k-1}, written in coordinates
_WEDGE_DPHI = {1: "grad_phi", 2: "grad_phi_cross", 3: "dot_grad_phi"}


@lru_cache(maxsize=None)
def omega_relation_matrices(
    P: PoissonStructure, k: int, i: int
) -> tuple[GradedOperatorMatrix, ...]:
    """Matrices into Omega^k at form degree i whose columns, in order,
    generate the degree-i relations defining Omega^k of A/<phi>.

    k=0: phi*A;  k=1: A*dphi + phi*Omega^1;  k=2: dphi ^ Omega^1 + phi*Omega^2;
    k=3: dphi ^ Omega^2 + phi*Omega^3 (the Jacobian ideal piece).
    """
    if k not in (0, 1, 2, 3):
        raise ValueError("k must be in 0..3")
    d = P.degree
    mats = []
    if k:
        src = basis_of("Omega%d" % (k - 1), i - d, P.weights)
        tgt = basis_of("Omega%d" % k, i, P.weights)
        mats.append(_matrix(P, _WEDGE_DPHI[k], src, tgt))
    mats.append(mult_phi_matrix(P, "Omega%d" % k, i - d))
    return tuple(mats)


@lru_cache(maxsize=None)
def omega_relation_columns(P: PoissonStructure, k: int, i: int) -> tuple:
    return tuple(col for m in omega_relation_matrices(P, k, i) for col in m.columns)


@lru_cache(maxsize=None)
def omega_relation_rank(P: PoissonStructure, k: int, i: int) -> int:
    """rank of the degree-i relations of Omega^k; Omega^{-1} is zero and has
    none."""
    if k < 0:
        return 0
    return rank_of_columns(omega_relation_columns(P, k, i))
