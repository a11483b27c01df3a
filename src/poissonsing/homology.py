"""Poisson homology of the ambient algebra and of the quotient surface.

On A the chain spaces Omega^k identify with X^{3-k} (form degree = derivation
degree + |w|, form_window), and the boundary, defined by the Koszul-Brylinski
formula (PoissonStructure.boundary), is (-1)^k * delta^{3-k} there: an
identity of operators of order at most one, which duality_identity_holds
certifies once per structure on their symbols.  homology_dims reads H_k from
its row of the table in complexes, which shares the stacks of H^{3-k} while
that certificate holds and ranks the boundary itself when it fails.

On A/<phi> the form spaces are presented as quotients of A and A^3 by the
relations generated by phi and by wedging with d(phi), the cycle stacks of
the Koszul row of A/<phi> (complexes.stack_columns), whose phi-multiples
are built only where their leading index is taken.  The boundaries descend:
projection_commutes certifies it once per structure, for every degree, on
the symbols and probe set of two order-one intertwinings (boundary_k commutes with phi,
and carries D_{4-k} to D_{5-k} o boundary_{k-1}); surface_homology_dims
reads the dims of the quotient complex from its row of the table in
complexes, whose stacks skip the boundaries and the source relations once
boundary o boundary = 0 and descent both hold (nothing while either fails).
The closed forms are: H_0 and H_3 are copies of the Jacobian quotient, H_2
is its image under multiplication by the Euler field, and H_1 is spanned by
the gradients of u_1, ..., u_{mu-1}.
"""

from __future__ import annotations

from .cohomology import FINITE, GradedDims, Generator, ModuleDescription, Window
from .cohomology import closed_form, complex_dims, default_window
from .complexes import certificate, space_name
from .milnor import MilnorData
from .poisson import PoissonStructure
from .vectorcalc import euler_field, grad


def form_window(P: PoissonStructure, window: Window) -> Window:
    """The form degrees of a derivation window: both ends shifted by |w|."""
    s = P.weight_sum
    return (window[0] + s, window[1] + s)


def default_form_window(P: PoissonStructure) -> Window:
    return form_window(P, default_window(P))


def duality_identity_holds(P: PoissonStructure) -> tuple[int, str]:
    """The duality certificate, (cases, first failing probe or ""):
    boundary_k = (-1)^k * delta^{3-k} for k = 1..3 in every degree, as they
    agree on e_s and x_a*e_s, which fix their symbols (complexes.certificate)."""
    return certificate(P, "boundary_equals_signed_coboundary")


def homology_dims(P: PoissonStructure, k: int, window: Window) -> GradedDims:
    """dim H_k of A at each form degree in the window."""
    return complex_dims(P, "homology", "ambient", k, window)


def ambient_homology_description(
    P: PoissonStructure, M: MilnorData, k: int
) -> ModuleDescription:
    """Closed form of H_k of A: the H^{3-k} module re-graded by +|w|."""
    co = closed_form(P, M, 3 - k)
    s = P.weight_sum
    gens = tuple(Generator(g.label, g.representative, g.degree + s, g.kind) for g in co.generators)
    name = space_name("homology", "ambient", k)
    return ModuleDescription(name, co.coefficient_ring, co.cas_period, gens)


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
    return ModuleDescription(space_name("homology", "surface", k), "F", None, tuple(gens))


def surface_homology_dims(P: PoissonStructure, k: int, window: Window) -> GradedDims:
    return complex_dims(P, "homology", "surface", k, window)


def projection_commutes(P: PoissonStructure) -> tuple[int, str]:
    """The descent certificate, (cases, first failing probe or ""): the
    boundary maps the relations of each Omega^k into those of Omega^{k-1}
    in every degree (complexes.certificate)."""
    return certificate(P, "quotient_boundary_well_defined")
