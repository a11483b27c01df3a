"""Exact matrices of the graded operators used by the engines.

Each operator of a structure is a family and k, whose grading is declared
once (pieces): it maps X^p at derivation degree i into X^q at degree
i + shift.  Form spaces are the same pieces (Omega^k at form degree i is
X^{3-k} at derivation degree i - |w|); the coboundaries and boundaries shift
the degree by N = deg(phi) - |w|, the Koszul maps of grad(phi) and
multiplication by phi by deg(phi), and the de Rham operators (divergence,
curl and gradient, from X^k into X^{k-1}) preserve it.

Every operator here is a linear differential operator of order at most one,
so its symbol is extracted once per structure (operator_symbol), from
P.integral (an integral multiple of phi, of the same ranks), and once per
process for de Rham, which reads no structure; named_operator is read only
there (_symbol), and the certificates run the symbol itself
(linalg.apply_symbol).  Every matrix is filled from it in ints by linalg's
matrix_of, through one constructor (operator_matrix) that caches nothing:
each rank stack fills only the columns it reduces (complexes.stack_pivots).
The blocks read more than once, of phi, the Koszul maps and de Rham, are
kept (kept_matrix).  A kept matrix is a value: its readers keep any rank of
it themselves.  The relation table (relation_blocks) holds the blocks
[D_k | phi] on X^{k-1}; relation_pivots keeps the pivot set of one echelon of
each entry, and relation_rank is its size.  The echelon reduces the entry's
relation_columns: it skips the D_k columns at the pivots of the phi-multiples
in X^k (relation_skip), which D_k's A-linearity puts in the span of the phi
columns; the surface homology stacks read the same columns.  complexes
describes how the entries serve the four (co)homology complexes.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache, partial
from itertools import chain
from sys import intern

from .linalg import KINDS, GradedOperatorMatrix, Symbol, Vector, basis_of, columns_off_pivots
from .linalg import matrix_of, pivots_of_columns, symbol_of
from .poisson import PoissonStructure
from .vectorcalc import cross, curl, divergence, dot, grad


def named_operator(P: PoissonStructure | None, name: str):
    """The operator of the given name on polynomials; "phi" is
    multiplication by phi on any X^k, and the de Rham operators read no P
    (it may be None)."""
    if name.startswith("de_rham"):
        return {"de_rham1": divergence, "de_rham2": curl, "de_rham3": grad}[name]
    nabla = P.nabla_phi
    return {
        **{"delta%d" % k: partial(P.delta, k) for k in (0, 1, 2)},
        **{"boundary%d" % k: partial(P.boundary, k) for k in (1, 2, 3)},
        "phi": lambda c: c * P.phi,
        "koszul1": lambda v: dot(v, nabla),
        "koszul2": lambda v: cross(v, nabla),
        "koszul3": lambda f: nabla * f,
    }[name]


# Each operator by name: its source piece X^p, its target piece X^q, and
# the unit of its degree shift: N ("N"), deg(phi) ("d") or none ("").
PIECES: dict[str, tuple[int, int, str]] = {
    **{"delta%d" % k: (k, k + 1, "N") for k in (0, 1, 2)},
    **{"boundary%d" % k: (3 - k, 4 - k, "N") for k in (1, 2, 3)},  # on Omega^k = X^{3-k}
    **{"koszul%d" % k: (k, k - 1, "d") for k in (1, 2, 3)},
    **{"phi%d" % k: (k, k, "d") for k in (0, 1, 2, 3)},  # phi times X^k
    **{"de_rham%d" % k: (k, k - 1, "") for k in (1, 2, 3)},  # divergence, curl, gradient
}


def pieces(P: PoissonStructure, name: str) -> tuple[int, int, int]:
    """(p, q, shift): the named operator maps X^p at derivation degree i into
    X^q at degree i + shift (PIECES); any other name raises ValueError."""
    if name not in PIECES:
        raise ValueError("no operator %r (one of %s)" % (name, ", ".join(PIECES)))
    p, q, unit = PIECES[name]
    return p, q, {"N": P.coboundary_degree, "d": P.degree}.get(unit, 0)


@lru_cache(maxsize=None)
def _symbol(P: PoissonStructure | None, operator: str, source_components: int) -> Symbol:
    """Symbol of named_operator(P, operator) on 1- or 3-component inputs, once
    per structure (P is None for the de Rham operators)."""
    return symbol_of(named_operator(P, operator), source_components)


def operator_symbol(P: PoissonStructure, name: str) -> Symbol:
    """Symbol of the named operator of P.integral on the components of its
    source piece; phi on X^0 and X^3 shares one, and phi on X^1 and X^2
    another.  De Rham's is keyed on no structure, so every P shares it."""
    p = pieces(P, name)[0]
    owner = None if name.startswith("de_rham") else P.integral
    return _symbol(owner, "phi" if name.startswith("phi") else name, 1 if p in (0, 3) else 3)


def operator_matrix(P: PoissonStructure, name: str, i: int, skip: int = 0) -> GradedOperatorMatrix:
    """Matrix of the named operator from X^p at degree i into X^q at i + shift
    (pieces), on the source less its elements at the bits of skip; uncached."""
    p, q, shift = pieces(P, name)
    source = basis_of(KINDS[p], i, P.weights)
    target = basis_of(KINDS[q], i + shift, P.weights)
    return matrix_of(operator_symbol(P, name), source.without(skip) if skip else source, target)


@lru_cache(maxsize=None)
def kept_matrix(P: PoissonStructure, name: str, i: int) -> GradedOperatorMatrix:
    """operator_matrix(P, name, i), kept for the blocks of phi, the Koszul
    maps and de Rham, read more than once (relation_blocks, the Koszul and
    cohomology suites)."""
    return operator_matrix(P, name, i)


# ---------------------------------------------------------------------------
# The relation table: surface constraints of X^k, relations of Omega^{4-k}
# ---------------------------------------------------------------------------


def relation_blocks(
    P: PoissonStructure, k: int, i: int
) -> tuple[GradedOperatorMatrix | None, GradedOperatorMatrix]:
    """(D_k, phi on X^{k-1}) from degree i into X^{k-1} at degree i+deg(phi),
    for k in 1..4; D_k is None for k = 4, as X^4 is zero.  Both are kept
    (kept_matrix, under interned names), so a reader of phi alone takes phi<k-1>.

    Their columns, in order, span the constraint of the surface cochains of
    X^k (v with D_k(v) in phi*X^{k-1}) and the relations d(phi) ^
    Omega^{3-k} + phi*Omega^{4-k} of Omega^{4-k} of A/<phi> at form degree
    i+deg(phi)+|w| (the wedge of Omega^1 with d(phi) is -D_2, of the same
    span).
    """
    D = kept_matrix(P, intern("koszul%d" % k), i) if k != 4 else None
    return D, kept_matrix(P, intern("phi%d" % (k - 1)), i)


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
    source = basis_of(KINDS[k], i, P.weights)
    if not source.dim:
        return 0
    index = basis_of(KINDS[k], i + P.degree, P.weights)._index
    a, b, c = max(P.phi.terms)
    return sum(
        1 << (offset + positions[e0 + a, e1 + b, e2 + c])
        for (offset, positions), monomials in zip(index, source.monomials)
        for e0, e1, e2 in monomials
    )


def relation_skip(P: PoissonStructure, k: int, i: int) -> int:
    """The D_k columns of relation_blocks(P, k, i), k in 1..3, that no
    echelon of the entry reduces, as the bits of one int: those at the
    pivots of phi*X^k_{i-d} (phi_multiple_pivots).  D_k is A-linear, so
    D_k(phi*v) = phi*D_k(v) lies in the span of the phi columns, and each
    such column is a combination of those and of D_k columns of larger
    index; no pivot set changes."""
    return phi_multiple_pivots(P, k, i - P.degree)


def relation_columns(P: PoissonStructure, k: int, i: int) -> Iterable[Vector]:
    """The columns of relation_blocks(P, k, i), k in 1..3, that an echelon of
    the entry reduces: D_k's off relation_skip, then phi's."""
    D, phi = relation_blocks(P, k, i)
    return chain(columns_off_pivots(D.columns, relation_skip(P, k, i)), phi.columns)


@lru_cache(maxsize=None)
def relation_pivots(P: PoissonStructure, k: int, i: int) -> int:
    """The pivots in X^{k-1} of an echelon of relation_blocks(P, k, i), as the
    bits of one int (linalg.pivots_of_columns), for k in 1..3; 0 otherwise.
    Only relation_columns are reduced."""
    return pivots_of_columns(relation_columns(P, k, i)) if 1 <= k <= 3 else 0
