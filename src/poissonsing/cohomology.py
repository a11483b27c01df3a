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

Everything is predicted per graded degree, and independently recomputed,
degree by degree, as the dimension of a subquotient of the same graded
pieces of X^0..X^3: complexes.complex_dim, on the table of complexes that
module describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

from .complexes import cochain_dim, complex_dim, space_name, stack_rank
from .linalg import subquotient_dim
from .milnor import MilnorData
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
    space = space_name("cohomology", "ambient", k)
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
    space = space_name("cohomology", "surface", k)
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
# Degree-by-degree verification (complexes.complex_dim)
# ---------------------------------------------------------------------------


def complex_dims(P: PoissonStructure, block: str, side: str, k: int, window: Window) -> GradedDims:
    """complex_dim at every degree of the window (form degrees for homology)."""
    lo, hi = window
    dims = {i: complex_dim(P, block, side, k, i) for i in range(lo, hi + 1)}
    return _dims_from_map(space_name(block, side, k), window, dims)


def brute_force_dims(P: PoissonStructure, k: int, window: Window) -> GradedDims:
    return complex_dims(P, "cohomology", "ambient", k, window)


def surface_brute_force_dims(P: PoissonStructure, k: int, window: Window) -> GradedDims:
    return complex_dims(P, "cohomology", "surface", k, window)


def surface_cochain_dim(P: PoissonStructure, k: int, i: int) -> int:
    """dim of the degree-i piece of the multiderivation space of A/<phi>:
    V = {v in X^k_i : D_k(v) lies in phi*X^{k-1}}, the projection to X^k of
    the kernel of the constraint stack [D_k | phi] (the cycle stack of the
    Koszul row of A/<phi> at (k, i); X^0 has no constraint), modulo the
    quotient relations phi*X^k at degree i-d."""
    return subquotient_dim(
        lambda: "X%d_surface" % k, i, cochain_dim(P, k, i),
        stack_rank(P, "koszul", "surface", k, i),
        cochain_dim(P, k - 1, i), cochain_dim(P, k, i - P.degree), 0,
    )
