"""Exact matrices of the graded operators used by the engines.

Everything here is a pure function of (structure, degree).  The matrices of
phi, the Koszul maps and de Rham are memoized, as the relation table, the
Koszul suite and the surface cochains read them again; those of the
coboundaries and boundaries are not, as each rank stack fills the columns it
reduces itself (complexes.stack_pivots).  Every matrix maps between the
pieces X^0..X^3 at derivation degrees; form spaces are the same pieces
(Omega^k at form degree i is X^{3-k} at derivation degree i - |w|).  The
horizontal operators (the Koszul maps of grad(phi) and multiplication by
phi) raise the degree by deg(phi), the coboundaries by deg(phi) - |w|, and
the vertical de Rham operators preserve it.

Every operator here (the coboundaries, the boundaries, multiplication by phi,
the Koszul maps and grad/curl/div) is a linear differential operator of
order at most one, so its symbol is extracted once per structure
(operator_symbol) and every graded matrix is filled from it by linalg's
matrix_of.  The relation table (relation_blocks) holds the blocks
[D_k | phi] on X^{k-1}; relation_pivots keeps the pivot set of one echelon
of each entry, not the echelon, and relation_rank is its size.  It skips
the D_k columns at the pivots of the phi-multiples in X^k, which D_k's
A-linearity puts in the span of the phi columns.  complexes
describes how the entries serve the four (co)homology complexes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .linalg import (
    GradedBasis,
    GradedOperatorMatrix,
    Symbol,
    basis_of,
    columns_off_pivots,
    matrix_of,
    pivots_of_columns,
    symbol_of,
)
from .poisson import PoissonStructure
from .poly import WeightSystem
from .vectorcalc import cross, curl, divergence, dot, grad


def named_operator(P: PoissonStructure | None, name: str):
    """The operator of the given name on polynomials (P is None for the
    vertical de Rham operators)."""
    if P is None:
        return {"de_rham1": divergence, "de_rham2": curl, "de_rham3": grad}[name]
    nabla = P.nabla_phi
    return {
        "delta0": P.delta0,
        "delta1": P.delta1,
        "delta2": P.delta2,
        "boundary1": lambda c: P.boundary(1, c),
        "boundary2": lambda c: P.boundary(2, c),
        "boundary3": lambda c: P.boundary(3, c),
        "phi": lambda c: c * P.phi,
        "koszul1": lambda v: dot(v, nabla),
        "koszul2": lambda v: cross(v, nabla),
        "koszul3": lambda f: nabla * f,
    }[name]


@lru_cache(maxsize=None)
def operator_symbol(P: PoissonStructure | None, name: str, source_components: int) -> Symbol:
    """Symbol of a named operator on 1- or 3-component inputs, extracted once
    per structure (P is None for the vertical de Rham operators)."""
    return symbol_of(named_operator(P, name), source_components)


def operator_matrix(
    P: PoissonStructure | None, name: str, src: GradedBasis, tgt: GradedBasis
) -> GradedOperatorMatrix:
    """matrix_of the named operator's symbol from src into tgt."""
    return matrix_of(operator_symbol(P, name, len(src.monomials)), src, tgt)


def delta_matrix(P: PoissonStructure, k: int, i: int) -> GradedOperatorMatrix:
    """Matrix of delta^k from X^k at degree i into X^{k+1} at degree i+N."""
    if k not in (0, 1, 2):
        raise ValueError("delta matrices exist for k in 0..2")
    n = P.coboundary_degree
    src = basis_of("X%d" % k, i, P.weights)
    tgt = basis_of("X%d" % (k + 1), i + n, P.weights)
    return operator_matrix(P, "delta%d" % k, src, tgt)


@lru_cache(maxsize=None)
def mult_phi_matrix(P: PoissonStructure, k: int, i: int) -> GradedOperatorMatrix:
    """Multiplication by phi from X^k at degree i to X^k at degree i+deg(phi)."""
    src = basis_of("X%d" % k, i, P.weights)
    tgt = basis_of("X%d" % k, i + P.degree, P.weights)
    return operator_matrix(P, "phi", src, tgt)


@lru_cache(maxsize=None)
def koszul_matrix(P: PoissonStructure, k: int, i: int) -> GradedOperatorMatrix:
    """The Koszul map D_k of grad(phi) from X^k at degree i into X^{k-1} at
    degree i+deg(phi): v . grad(phi) (k=1), v x grad(phi) (k=2) and
    f*grad(phi) (k=3)."""
    if k not in (1, 2, 3):
        raise ValueError("Koszul matrices exist for k in 1..3")
    src = basis_of("X%d" % k, i, P.weights)
    tgt = basis_of("X%d" % (k - 1), i + P.degree, P.weights)
    return operator_matrix(P, "koszul%d" % k, src, tgt)


@lru_cache(maxsize=None)
def de_rham_matrix(w: WeightSystem, k: int, i: int) -> GradedOperatorMatrix:
    """The degree-0 vertical operator from X^k into X^{k-1} at degree i:
    divergence (k=1), curl (k=2) and gradient (k=3)."""
    if k not in (1, 2, 3):
        raise ValueError("de Rham matrices exist for k in 1..3")
    src, tgt = basis_of("X%d" % k, i, w), basis_of("X%d" % (k - 1), i, w)
    return operator_matrix(None, "de_rham%d" % k, src, tgt)


# ---------------------------------------------------------------------------
# The relation table: surface constraints of X^k, relations of Omega^{4-k}
# ---------------------------------------------------------------------------


def relation_blocks(
    P: PoissonStructure, k: int, i: int
) -> tuple[GradedOperatorMatrix | None, GradedOperatorMatrix]:
    """(D_k, phi on X^{k-1}) from degree i into X^{k-1} at degree i+deg(phi),
    for k in 1..4; D_k is None for k = 4, as X^4 is zero.  Both are cached
    (koszul_matrix, mult_phi_matrix), so a reader of the phi half alone
    takes mult_phi_matrix(P, k-1, i).

    Their columns, in order, span the constraint of the surface cochains of
    X^k (v with D_k(v) in phi*X^{k-1}) and the relations d(phi) ^
    Omega^{3-k} + phi*Omega^{4-k} of Omega^{4-k} of A/<phi> at form degree
    i+deg(phi)+|w| (the wedge of Omega^1 with d(phi) is -D_2, of the same
    span).
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("relation blocks exist for k in 1..4")
    return (koszul_matrix(P, k, i) if k < 4 else None), mult_phi_matrix(P, k - 1, i)


def relation_rank(P: PoissonStructure, k: int, i: int) -> int:
    """rank [D_k | phi] of relation_blocks(P, k, i); 0 for k outside 1..4
    (X^{k-1} is zero there), and dim X^3_i for k = 4, where the stack is the
    phi-multiples of X^3 alone, which are independent."""
    if k == 4:
        return basis_of("X3", i, P.weights).dim
    return relation_pivots(P, k, i).bit_count()


def phi_multiple_pivots(P: PoissonStructure, k: int, i: int) -> int:
    """The pivots in X^k at degree i+deg(phi) of the phi-multiples of X^k_i,
    as the bits of one int: the indices of LM(phi)*m for the basis elements
    m of X^k_i, with LM(phi) the lex-largest exponent of the homogeneous
    phi, looked up in the target's (offset, shared X0 position map) pairs.
    Each piece lists its monomials in descending lex order, so that index is
    the smallest of the column of phi*m and the indices are distinct."""
    source = basis_of("X%d" % k, i, P.weights)
    if not source.dim:
        return 0
    index = basis_of("X%d" % k, i + P.degree, P.weights)._index
    a, b, c = max(P.phi.terms)
    return sum(
        1 << (offset + positions[e0 + a, e1 + b, e2 + c])
        for (offset, positions), monomials in zip(index, source.monomials)
        for e0, e1, e2 in monomials
    )


@lru_cache(maxsize=None)
def relation_pivots(P: PoissonStructure, k: int, i: int) -> int:
    """The pivots in X^{k-1} of an echelon of relation_blocks(P, k, i), as the
    bits of one int (linalg.Echelon.pivots), for k in 1..3; 0 otherwise.

    The D_k columns at the pivots of phi*X^k_{i-d} (phi_multiple_pivots) are
    not reduced: D_k is A-linear, so D_k(phi*v) = phi*D_k(v) lies in the
    span of the phi columns, and each skipped column is a combination of
    those and of D_k columns of larger index.  The pivots are unchanged."""
    if not 1 <= k <= 3:
        return 0
    D, phi = relation_blocks(P, k, i)
    skip = phi_multiple_pivots(P, k, i - P.degree)
    return pivots_of_columns(chain(columns_off_pivots(D.columns, skip), phi.columns))
