"""Closed-form Poisson cohomology modules and their degree-by-degree checks.

For an accepted phi (isolated singularity, weight homogeneous of degree d
with weights w, mu-dimensional Jacobian quotient with monomial basis u_0=1,
u_1, ..., u_{mu-1}):

  H^0 is the polynomial algebra on phi itself (Casimirs);
  H^1 vanishes unless d = |w|, when it is free of rank one on the Euler field;
  H^2 mixes a free part and a finite part: free generators grad(u_j) for
      every j >= 1 with deg(u_j) != d - |w| together with u_j*grad(phi) for
      every j with deg(u_j) = d - |w|, plus one extra one-dimensional class
      grad(u_j) for each j >= 1 with deg(u_j) = d - |w|;
  H^3 is free on the classes of u_0, ..., u_{mu-1}.

On the quotient algebra A/<phi> the Casimirs are just the constants, H^1 and
H^2 are spanned by the classes of u_j*e_w resp. u_j*grad(phi) over the u_j of
degree d - |w|, and H^3 vanishes.

Everything is predicted per graded degree, and independently recomputed as
dim ker(delta^k) - rank(delta^{k-1}) on the same graded pieces; the surface
spaces are modeled as subquotients of the ambient pieces, with membership in
<phi> expressed through multiplication-by-phi blocks, and their dimensions
are obtained from ranks of the stacked block matrices.  The coboundary stack
at (k, i) is the cocycle stack one step down, at (k-1, i-N), so each stack
is ranked once.  Every dimension is the one formula of linalg.subquotient_dim
in such ranks; at the ends of each complex the missing spaces (delta^{-1},
delta^3, X^{-1}, X^4) are zero spaces whose ranks the rank helpers give, so
no degree or k needs a branch of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Literal, Union

from .linalg import basis_of, offset_vector, rank_of_columns, subquotient_dim
from .milnor import MilnorData
from .operators import (
    delta_matrix,
    delta_rank,
    mult_phi_matrix,
    relation_blocks,
    relation_rank,
)
from .poisson import PoissonStructure
from .poly import Poly
from .vectorcalc import VecPoly, grad
from .vectorcalc import euler_field as _euler_field

Window = tuple[int, int]

FREE = "free_over_Cas"
FINITE = "vector_space_only"


@dataclass(frozen=True)
class Generator:
    """One generator of a (co)homology module, with its graded degree."""

    label: str
    representative: Union[Poly, VecPoly]
    degree: int
    kind: Literal["free_over_Cas", "vector_space_only"]


@dataclass(frozen=True)
class ModuleDescription:
    """Symbolic description of a (co)homology space as a module.

    coefficient_ring is "F[phi]" for the ambient algebra (free generators
    then repeat every cas_period degrees) and "F" for the quotient algebra.
    """

    space: str
    coefficient_ring: Literal["F[phi]", "F"]
    cas_period: int | None
    generators: tuple[Generator, ...]

    @property
    def zero(self) -> bool:
        return not self.generators

    def free_rank(self) -> int:
        return sum(1 for g in self.generators if g.kind == FREE)

    def finite_count(self) -> int:
        return sum(1 for g in self.generators if g.kind == FINITE)


@dataclass(frozen=True)
class GradedDims:
    """Hilbert function of one space over a degree window (zeros omitted)."""

    space: str
    window: Window
    dims: tuple[tuple[int, int], ...]

    def dim_at(self, i: int) -> int:
        return dict(self.dims).get(i, 0)

    def as_dict(self) -> dict[int, int]:
        return dict(self.dims)

    def total(self) -> int:
        return sum(n for _, n in self.dims)

    def matches(self, other: "GradedDims") -> bool:
        return self.window == other.window and dict(self.dims) == dict(other.dims)

    def first_difference(self, other: "GradedDims") -> int | None:
        """The first degree of the window where the two differ, or None."""
        mine, theirs = self.as_dict(), other.as_dict()
        lo, hi = self.window
        return next((i for i in range(lo, hi + 1) if mine.get(i, 0) != theirs.get(i, 0)), None)

    def pairs(self) -> list[list[int]]:
        return [[i, n] for i, n in self.dims]


def _dims_from_map(space: str, window: Window, dims: dict[int, int]) -> GradedDims:
    pairs = tuple(sorted((i, n) for i, n in dims.items() if n))
    return GradedDims(space, window, pairs)


def default_window(P: PoissonStructure) -> Window:
    """Derivation degrees [-|w|, socle + 2*deg(phi)]: every generator of the
    closed forms plus two full Casimir periods past the socle."""
    d, s = P.degree, P.weight_sum
    return (-s, 3 * d - 2 * s + 2 * d)


def predicted_dims(desc: ModuleDescription, window: Window) -> GradedDims:
    """Expand a module description into per-degree dimensions on a window."""
    lo, hi = window
    dims: dict[int, int] = {}
    for g in desc.generators:
        if g.kind == FREE:
            if desc.cas_period is None:
                raise ValueError("free generators need a Casimir period")
            e = g.degree
            while e <= hi:
                if e >= lo:
                    dims[e] = dims.get(e, 0) + 1
                e += desc.cas_period
        else:
            if lo <= g.degree <= hi:
                dims[g.degree] = dims.get(g.degree, 0) + 1
    return _dims_from_map(desc.space, window, dims)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def closed_form(P: PoissonStructure, M: MilnorData, k: int) -> ModuleDescription:
    """The module H^k of the ambient algebra, described by generators."""
    d, s = P.degree, P.weight_sum
    space = "H%d_ambient" % k
    gens: list[Generator] = []
    if k == 0:
        gens.append(Generator("1", Poly.one(), 0, FREE))
    elif k == 1:
        if d == s:
            gens.append(Generator("euler_field", _euler_field(P.weights), 0, FREE))
    elif k == 2:
        for j, (u, deg_u) in enumerate(M.basis_polys()):
            qualifying = deg_u == d - s
            if j >= 1 and not qualifying:
                gens.append(Generator("grad_u%d" % j, grad(u), deg_u - s, FREE))
            if qualifying:
                gens.append(
                    Generator("u%d_grad_phi" % j, P.nabla_phi * u, deg_u + d - s, FREE)
                )
            if j >= 1 and qualifying:
                gens.append(Generator("grad_u%d" % j, grad(u), deg_u - s, FINITE))
    elif k == 3:
        for j, (u, deg_u) in enumerate(M.basis_polys()):
            gens.append(Generator("u%d" % j, u, deg_u - s, FREE))
    else:
        raise ValueError("k must be in 0..3")
    return ModuleDescription(space, "F[phi]", d, tuple(gens))


def surface_closed_form(P: PoissonStructure, M: MilnorData, k: int) -> ModuleDescription:
    """The module H^k of the quotient algebra A/<phi>."""
    d, s = P.degree, P.weight_sum
    space = "H%d_surface" % k
    gens: list[Generator] = []
    if k == 0:
        gens.append(Generator("1", Poly.one(), 0, FINITE))
    elif k == 1:
        e_w = _euler_field(P.weights)
        for j, (u, deg_u) in enumerate(M.basis_polys()):
            if deg_u == d - s:
                gens.append(Generator("u%d_euler" % j, e_w * u, deg_u, FINITE))
    elif k == 2:
        for j, (u, deg_u) in enumerate(M.basis_polys()):
            if deg_u == d - s:
                gens.append(
                    Generator("u%d_grad_phi" % j, P.nabla_phi * u, deg_u + d - s, FINITE)
                )
    elif k == 3:
        pass
    else:
        raise ValueError("k must be in 0..3")
    return ModuleDescription(space, "F", None, tuple(gens))


# ---------------------------------------------------------------------------
# Degree-by-degree verification, ambient algebra
# ---------------------------------------------------------------------------


def _cochain_dim(P: PoissonStructure, k: int, i: int) -> int:
    """dim X^k at derivation degree i; X^k is zero outside k in 0..3."""
    return basis_of("X%d" % k, i, P.weights).dim if 0 <= k <= 3 else 0


def cohomology_dim(P: PoissonStructure, k: int, i: int) -> int:
    """dim H^k at derivation degree i: dim ker(delta^k) - rank(delta^{k-1}),
    where delta^{-1} and delta^3 are zero maps (delta_rank gives 0)."""
    N = P.coboundary_degree
    return subquotient_dim(
        "H%d_ambient" % k, i, _cochain_dim(P, k, i), delta_rank(P, k, i), 0,
        delta_rank(P, k - 1, i - N), 0,
    )


def brute_force_dims(P: PoissonStructure, k: int, window: Window) -> GradedDims:
    lo, hi = window
    dims = {i: cohomology_dim(P, k, i) for i in range(lo, hi + 1)}
    return _dims_from_map("H%d_ambient" % k, window, dims)


# ---------------------------------------------------------------------------
# Degree-by-degree verification, quotient algebra (subquotient model)
# ---------------------------------------------------------------------------


def surface_cochain_dim(P: PoissonStructure, k: int, i: int) -> int:
    """dim of the degree-i piece of the multiderivation space of A/<phi>:
    V = {v in X^k_i : D_k(v) lies in phi*X^{k-1}}, the projection to X^k of
    the kernel of the constraint stack [D_k | phi] (operators.relation_blocks;
    X^0 has no constraint), modulo the quotient relations phi*X^k at degree
    i-d."""
    return subquotient_dim(
        "X%d_surface" % k, i, _cochain_dim(P, k, i), relation_rank(P, k, i),
        _cochain_dim(P, k - 1, i), _cochain_dim(P, k, i - P.degree), 0,
    )


@lru_cache(maxsize=None)
def _cocycle_rank(P: PoissonStructure, k: int, i: int) -> int:
    """rank of the cocycle stack of X^k at degree i, for k in -1..3.

    Columns, in order: [D_k,j ; delta^k_j] for each basis vector j of X^k_i,
    then [phi ; 0] (the constraint's phi-multiples of X^{k-1}), then
    [0 ; phi*X^{k+1}] at degree i+N-d; D_k and phi are the relation blocks
    of (k, i), and X^0 has none.  At the ends of the complex no elimination
    is needed: X^{-1} is zero, so the stack is the phi-multiples of X^0
    alone, which are independent; delta^3 and X^4 are zero, so the stack is
    the constraint stack [D_3 | phi].
    """
    N, d = P.coboundary_degree, P.degree
    if k < 0:
        return _cochain_dim(P, 0, i + N - d)
    if k == 3:
        return relation_rank(P, 3, i)
    delta_cols = delta_matrix(P, k, i).columns if _cochain_dim(P, k, i) else []
    rows_top, top, p_cols = 0, delta_cols, []
    if k:
        D, phi = relation_blocks(P, k, i)
        rows_top, p_cols = D.target.dim, phi.columns
        top = ({**c, **offset_vector(v, rows_top)} for c, v in zip(D.columns, delta_cols))
    p2 = mult_phi_matrix(P, k + 1, i + N - d).columns
    return rank_of_columns(chain(top, p_cols, (offset_vector(c, rows_top) for c in p2)))


def surface_cohomology_dim(P: PoissonStructure, k: int, i: int) -> int:
    """dim H^k of A/<phi> at derivation degree i.

    Cocycles: v in V with delta^k(v) in phi*X^{k+1}, the kernel of the
    cocycle stack, whose relation columns are the phi-multiples of X^{k-1}
    (constraint) and of X^{k+1} (target); coboundaries: images of V at
    degree i-N plus the quotient relations phi*X^k at degree i-d.  Both are
    measured inside the ambient graded piece, so the quotient relations
    cancel and only ranks of stacked blocks are needed.  The coboundary
    stack at (k, i) is, column for column, the cocycle stack one step down
    at (k-1, i-N), whose top rows are the constraint stack there; so each
    stack is ranked once (_cocycle_rank), and the zero spaces X^{-1} and
    X^4 at the ends of the complex take the same formula.
    """
    N, d = P.coboundary_degree, P.degree
    return subquotient_dim(
        "H%d_surface" % k, i, _cochain_dim(P, k, i), _cocycle_rank(P, k, i),
        _cochain_dim(P, k - 1, i) + _cochain_dim(P, k + 1, i + N - d),
        _cocycle_rank(P, k - 1, i - N), relation_rank(P, k - 1, i - N),
    )


def surface_brute_force_dims(P: PoissonStructure, k: int, window: Window) -> GradedDims:
    lo, hi = window
    dims = {i: surface_cohomology_dim(P, k, i) for i in range(lo, hi + 1)}
    return _dims_from_map("H%d_surface" % k, window, dims)
