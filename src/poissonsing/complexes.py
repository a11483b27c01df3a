"""The four (co)homology complexes of the engine, as one table.

Each computed (co)homology space, of A = F[x,y,z] (side "ambient") or of
A/<phi> (side "surface"), is a subquotient of a complex of graded pieces of
X^0..X^3.  Homology H_k at form degree i is indexed by p = 3-k at
derivation degree j = i - |w| (operators.form_basis), so that delta^p and
boundary_k both map X^p_j to X^{p+1}_{j+N}, with N = d - |w| and d = deg(phi).

COMPLEXES has one row per (block, side).  It names the differential; says
whether a constraint T_p = D_p with allowed values S_p = phi*X^{p-1} (the
entry relation_blocks(P, p, j)) applies, as it does only for surface
cohomology, whose cochains are the v with D_p(v) in phi*X^{p-1}; names the
halves of the entry relation_blocks(P, p+2, j+N-d) that make the target
relations R_{p+1}: none on A, the phi half phi*X^{p+1} for surface
cohomology, both (d(phi) ^ . + phi*.) for surface homology; and names the
closed form and the engine that suites.space_family looks up at call time.
Ambient homology is ambient cohomology re-indexed, as the boundary is the
signed coboundary, so its engine never ranks its own row.

The cycle stack of X^p_j is [[T; d] | [S; 0] | [0; R]], ranked once by the
one memo stack_rank, and the boundary stack at (p, j) is the cycle stack at
(p-1, j-N).  So every dimension is one linalg.subquotient_dim call
(complex_dim) in n = dim X^p_j, the rank of the stack, the rank of its
relation columns [S; 0] | [0; R], the rank of the stack one step down and
the rank [T | S] of that stack's top rows.  At the ends of the complex no
elimination is needed: for p = -1, X^p is zero and the stack is R alone
(relation_rank, or the source dim of an injective phi block); for p = 3 the
target of d is zero and the stack is [T | S] (relation_rank); and a stack
that is d alone, on A, has the rank memoized on d's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .linalg import GradedOperatorMatrix, basis_of, offset_vector, rank_of_columns, subquotient_dim
from .operators import boundary_matrix, delta_matrix, relation_blocks, relation_rank
from .poisson import PoissonStructure


@dataclass(frozen=True)
class Complex:
    """One row of the table (see the module docstring)."""

    differential: str
    constrained: bool
    relations: tuple[str, ...]
    describe: str
    compute: str


COMPLEXES: dict[tuple[str, str], Complex] = {
    ("cohomology", "ambient"): Complex("delta", False, (), "closed_form", "brute_force_dims"),
    ("cohomology", "surface"):
        Complex("delta", True, ("phi",), "surface_closed_form", "surface_brute_force_dims"),
    ("homology", "ambient"):
        Complex("boundary", False, (), "ambient_homology_description", "homology_dims"),
    ("homology", "surface"): Complex(
        "boundary", False, ("koszul", "phi"), "surface_homology_description",
        "surface_homology_dims",
    ),
}


def space_name(block: str, side: str, k: int) -> str:
    return ("H%d_%s" if block == "cohomology" else "H_%d_%s") % (k, side)


def cochain_dim(P: PoissonStructure, p: int, j: int) -> int:
    """dim X^p at derivation degree j; X^p is zero outside p in 0..3."""
    return basis_of("X%d" % p, j, P.weights).dim if 0 <= p <= 3 else 0


def _constraint_rank(P: PoissonStructure, row: Complex, p: int, j: int) -> int:
    return relation_rank(P, p, j) if row.constrained else 0


def target_relations(
    P: PoissonStructure, row: Complex, p: int, j: int
) -> list[GradedOperatorMatrix]:
    """The blocks of R_{p+1}; only the halves the row names are built."""
    if not row.relations:
        return []
    k, i = p + 2, j + P.coboundary_degree - P.degree
    return [m for m in relation_blocks(P, k, i, "koszul" in row.relations) if m]


def _target_rank(P: PoissonStructure, row: Complex, p: int, j: int) -> int:
    """rank R_{p+1}; the phi half alone is injective, of rank its source dim."""
    k, i = p + 2, j + P.coboundary_degree - P.degree
    if "koszul" in row.relations:
        return relation_rank(P, k, i)
    return cochain_dim(P, k - 1, i) if row.relations else 0


@lru_cache(maxsize=None)
def stack_rank(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """rank of the cycle stack [[T; d] | [S; 0] | [0; R]] of X^p_j in the
    (block, side) complex, for p in -1..3, with its columns in that order."""
    row = COMPLEXES[block, side]
    if p == 3:
        return _constraint_rank(P, row, p, j)
    if p < 0:
        return _target_rank(P, row, p, j)
    d = None
    if cochain_dim(P, p, j):
        is_delta = row.differential == "delta"
        d = delta_matrix(P, p, j) if is_delta else boundary_matrix(P, 3 - p, j + P.weight_sum)
    if not (row.constrained or row.relations):
        return d.rank() if d else 0
    rows_top, top, s_cols = 0, d.columns if d else [], []
    if row.constrained and p:
        T, S = relation_blocks(P, p, j)
        rows_top, s_cols = T.target.dim, S.columns
        top = ({**t, **offset_vector(c, rows_top)} for t, c in zip(T.columns, top))
    r_cols = (offset_vector(c, rows_top) for m in target_relations(P, row, p, j) for c in m.columns)
    return rank_of_columns(chain(top, s_cols, r_cols))


def complex_dim(P: PoissonStructure, block: str, side: str, k: int, i: int) -> int:
    """dim H^k at derivation degree i (block "cohomology") or H_k at form
    degree i ("homology") of A (side "ambient") or A/<phi> ("surface")."""
    row = COMPLEXES[block, side]
    p, j = (k, i) if block == "cohomology" else (3 - k, i - P.weight_sum)
    N = P.coboundary_degree
    relations = (cochain_dim(P, p - 1, j) if row.constrained else 0) + _target_rank(P, row, p, j)
    return subquotient_dim(
        space_name(block, side, k), i, cochain_dim(P, p, j), stack_rank(P, block, side, p, j),
        relations, stack_rank(P, block, side, p - 1, j - N), _constraint_rank(P, row, p - 1, j - N),
    )
