"""Poisson homology of the ambient algebra and of the quotient surface.

On A the chain spaces Omega^k identify with X^{3-k} (form degree = derivation
degree + |w|) and the boundary is (-1)^k * delta^{3-k}, so the homology
H_k at form degree i equals the cohomology H^{3-k} at derivation degree
i - |w|; homology_dims re-indexes the cohomology engine accordingly, and
first_bridge_failure checks the boundary/coboundary matrix identity
entrywise on a window.

On A/<phi> the form spaces are presented as quotients of A and A^3 by the
relations generated by phi and by wedging with d(phi).  These are the
columns of the relation table that also constrains the surface cochains
(operators.relation_blocks): the relations of Omega^k at form degree i are
relation_blocks(P, 4-k, i - |w| - deg(phi)), on Omega^k = X^{3-k}
(_relations_of).  The boundaries descend, and the homology dimensions per
degree again reduce to ranks of stacked relation/boundary blocks.  The
boundary stack at (k, i) is the cycle stack one step down, at (k+1, i-N),
so each stack is ranked once, and every dimension is the one formula of
linalg.subquotient_dim in such ranks, with the zero spaces Omega^{-1} and
Omega^4 at the ends.
The closed forms are: H_0 and H_3 are copies of the Jacobian quotient, H_2
is its image under multiplication by the Euler field, and H_1 is spanned by
the gradients of u_1, ..., u_{mu-1}.
"""

from __future__ import annotations

from functools import lru_cache

from .cohomology import (
    FINITE,
    GradedDims,
    Generator,
    ModuleDescription,
    Window,
    brute_force_dims,
    closed_form,
    default_window,
    _dims_from_map,
)
from .linalg import Echelon, rank_of_columns, subquotient_dim
from .milnor import MilnorData
from .operators import (
    boundary_matrix,
    delta_matrix,
    form_basis,
    relation_blocks,
    relation_rank,
)
from .poisson import PoissonStructure
from .vectorcalc import euler_field, grad


def default_form_window(P: PoissonStructure) -> Window:
    lo, hi = default_window(P)
    s = P.weight_sum
    return (lo + s, hi + s)


def duality_identity_holds(P: PoissonStructure, k: int, i: int) -> bool:
    """Entrywise: boundary_k at form degree i equals (-1)^k * delta^{3-k} at
    derivation degree i - |w| (the component layouts coincide)."""
    b = boundary_matrix(P, k, i)
    d = delta_matrix(P, 3 - k, i - P.weight_sum).scaled((-1) ** k)
    return b.same_entries(d)


def first_bridge_failure(P: PoissonStructure, k: int, window: Window) -> int | None:
    """The first form degree of the window where boundary_k differs from the
    signed coboundary, or None (boundary_0 is zero, so k = 0 has none)."""
    if k == 0:
        return None
    lo, hi = window
    return next((i for i in range(lo, hi + 1) if not duality_identity_holds(P, k, i)), None)


def homology_dims(P: PoissonStructure, k: int, window: Window) -> GradedDims:
    """dim H_k at each form degree in the window, via the degree shift."""
    lo, hi = window
    s = P.weight_sum
    co = brute_force_dims(P, 3 - k, (lo - s, hi - s))
    dims = {i + s: n for i, n in co.dims}
    return _dims_from_map("H_%d_ambient" % k, window, dims)


def ambient_homology_description(
    P: PoissonStructure, M: MilnorData, k: int
) -> ModuleDescription:
    """Closed form of H_k of A: the H^{3-k} module re-graded by +|w|."""
    co = closed_form(P, M, 3 - k)
    s = P.weight_sum
    gens = tuple(
        Generator(g.label, g.representative, g.degree + s, g.kind)
        for g in co.generators
    )
    return ModuleDescription("H_%d_ambient" % k, co.coefficient_ring, co.cas_period, gens)


# ---------------------------------------------------------------------------
# Quotient surface
# ---------------------------------------------------------------------------


def surface_homology_description(
    P: PoissonStructure, M: MilnorData, k: int
) -> ModuleDescription:
    """Closed form of H_k of A/<phi>, graded by form degree."""
    s = P.weight_sum
    e_w = euler_field(P.weights)
    gens: list[Generator] = []
    if k == 0:
        for j, (u, deg_u) in enumerate(M.basis_polys()):
            gens.append(Generator("u%d" % j, u, deg_u, FINITE))
    elif k == 1:
        for j, (u, deg_u) in enumerate(M.basis_polys()):
            if j >= 1:
                gens.append(Generator("grad_u%d" % j, grad(u), deg_u, FINITE))
    elif k == 2:
        for j, (u, deg_u) in enumerate(M.basis_polys()):
            gens.append(Generator("u%d_euler" % j, e_w * u, deg_u + s, FINITE))
    elif k == 3:
        for j, (u, deg_u) in enumerate(M.basis_polys()):
            gens.append(Generator("u%d" % j, u, deg_u + s, FINITE))
    else:
        raise ValueError("k must be in 0..3")
    return ModuleDescription("H_%d_surface" % k, "F", None, tuple(gens))


def _relations_of(P: PoissonStructure, k: int, i: int) -> tuple[int, int]:
    """(4-k, j) such that relation_blocks(P, 4-k, j) presents the degree-i
    relations of Omega^k = X^{3-k}: j + deg(phi) = i - |w|.  For k = -1 the
    first entry is 5, where relation_rank gives 0 (Omega^{-1} is zero)."""
    return 4 - k, i - P.weight_sum - P.degree


def _relation_columns(P: PoissonStructure, k: int, i: int) -> list:
    """The columns of the degree-i relations of Omega^k, for k in 0..3."""
    return [c for m in relation_blocks(P, *_relations_of(P, k, i)) if m for c in m.columns]


@lru_cache(maxsize=None)
def _cycle_rank(P: PoissonStructure, k: int, i: int) -> int:
    """rank of the cycle stack of Omega^k at form degree i, for k in 0..4:
    the boundary columns, then the relations of Omega^{k-1} at degree i+N.
    At the ends of the complex the boundary is zero, so the stack is empty
    for k = 0 and holds only the relations of Omega^3 for k = 4."""
    N = P.coboundary_degree
    if k == 0:
        return 0
    if k == 4:
        return relation_rank(P, *_relations_of(P, 3, i + N))
    cols = boundary_matrix(P, k, i).columns if form_basis(P, k, i).dim else []
    return rank_of_columns([*cols, *_relation_columns(P, k - 1, i + N)])


def surface_homology_dim(P: PoissonStructure, k: int, i: int) -> int:
    """dim H_k of A/<phi> at form degree i, from the chain-space presentation.

    Cycles: v with boundary(v) inside the degree-(i+N) relations of
    Omega^{k-1}; boundaries: the image of Omega^{k+1} at degree i-N plus the
    degree-i relations of Omega^k.  Both measured in the ambient piece, so
    their difference is the homology dimension of the quotient complex.  The
    boundary stack at (k, i) is, column for column, the cycle stack at
    (k+1, i-N), and Omega^{-1} (no relations) and Omega^4 at the ends of the
    complex are zero spaces, so every k takes the same formula.
    """
    N = P.coboundary_degree
    return subquotient_dim(
        "H_%d_surface" % k, i, form_basis(P, k, i).dim, _cycle_rank(P, k, i),
        relation_rank(P, *_relations_of(P, k - 1, i + N)), _cycle_rank(P, k + 1, i - N), 0,
    )


def surface_homology_dims(P: PoissonStructure, k: int, window: Window) -> GradedDims:
    lo, hi = window
    dims = {i: surface_homology_dim(P, k, i) for i in range(lo, hi + 1)}
    return _dims_from_map("H_%d_surface" % k, window, dims)


def projection_commutes(P: PoissonStructure, k: int, i: int) -> bool:
    """The boundary maps degree-i relations of Omega^k into the relations of
    Omega^{k-1}, so the boundary descends to the quotient complex."""
    if k == 0:
        return True
    prev = Echelon()
    for col in _relation_columns(P, k - 1, i + P.coboundary_degree):
        prev.insert(col)
    b = boundary_matrix(P, k, i)
    for relations in relation_blocks(P, *_relations_of(P, k, i)):
        for col in b.compose(relations).columns:
            if not prev.contains(col):
                return False
    return True
