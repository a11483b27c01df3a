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
matrix_of, through one constructor (operator_matrix) that caches nothing.
The engines read a block's columns through one reader, operator_columns,
which fills the block afresh at each read, on the columns off its skip set
alone (complexes.stack_pivots): no block outlives its reader.  No block of
phi is filled: phi_multiples gives the leading index of each phi-multiple
without elimination and builds its column only when asked, from the phi
symbol.
OUTGOING and STEPS read off PIECES each family's map out of X^p and its
step, from which complexes finds every spot of its complexes.  This module
holds operators only: every rank is kept by complexes.stack_pivots, which
claims the leading index of each phi-multiple that brings a new pivot and
builds the others, and phi_multiples also serves the skip sets that
complexes.skipped licenses.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, partial

from .linalg import KINDS, GradedOperatorMatrix, Symbol, Vector, basis_of
from .linalg import matrix_of, symbol_of
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
    p, q, _ = PIECES[name]
    return p, q, step(P, name.rstrip("0123"))[1]


# Each family's operator out of X^p, and the step of its maps: the piece
# direction q - p and the unit of the degree shift, read once from PIECES.
OUTGOING: dict[tuple[str, int], str] = {
    (name.rstrip("0123"), p): name for name, (p, _, _) in PIECES.items()
}
STEPS: dict[str, tuple[int, str]] = {
    name.rstrip("0123"): (q - p, unit) for name, (p, q, unit) in PIECES.items()
}


def step(P: PoissonStructure, family: str) -> tuple[int, int]:
    """(q - p, shift): every map of the family (OUTGOING) takes X^p at
    degree j into X^q at degree j + shift."""
    direction, unit = STEPS[family]
    return direction, {"N": P.coboundary_degree, "d": P.degree}.get(unit, 0)


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


def operator_columns(P: PoissonStructure, name: str, i: int, skip: int = 0) -> list[Vector]:
    """The columns of the named block at degree i off the bits of skip,
    filled on those alone."""
    return operator_matrix(P, name, i, skip).columns


def phi_multiples(
    P: PoissonStructure, k: int, i: int
) -> tuple[list[int], Callable[[int], Vector]]:
    """The phi-multiples of X^k_i in X^k at degree i+deg(phi): the leading
    index of each phi*m, m in basis order, found without elimination, and a
    maker of the column of phi times basis element t, built only when it is
    called, from the phi symbol of P.integral by matrix_of's exponent
    arithmetic on its order-0 terms (phi's are no others), so it is column
    t of operator_matrix(P, "phi%d" % k, i).  The leading index is that of
    LM(phi)*m, with LM(phi) the lex-largest exponent of the homogeneous
    phi, looked up in the target's (offset, shared X0 position map) pairs.
    Each piece lists its monomials in descending lex order, so that index
    is the smallest of the column of phi*m, and the indices increase along
    the basis."""
    source = basis_of(KINDS[k], i, P.weights)
    index = basis_of(KINDS[k], i + P.degree, P.weights)._index if source.dim else ()
    a, b, c = max(P.phi.terms)
    leads = [
        offset + positions[e0 + a, e1 + b, e2 + c]
        for (offset, positions), monomials in zip(index, source.monomials)
        for e0, e1, e2 in monomials
    ]
    terms: list = []  # per source component, on first use: (offset, position map, shift, value)

    def column(t: int) -> Vector:
        if not terms:
            terms.extend([(*index[u], o0, o1, o2, v) for u, o0, o1, o2, v in groups[3]]
                         for groups in operator_symbol(P, "phi%d" % k).terms)
        for s, monomials in enumerate(source.monomials):
            if t < len(monomials):
                break
            t -= len(monomials)
        e0, e1, e2 = monomials[t]
        return {offset + positions[e0 + o0, e1 + o1, e2 + o2]: v
                for offset, positions, o0, o1, o2, v in terms[s]}

    return leads, column
