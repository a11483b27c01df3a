"""
Poisson homology and the duality with cohomology
================================================

On the polynomial algebra the chain spaces of differential forms identify
with the multiderivation spaces (Omega^k with X^{3-k}, shifting degrees by
|w|), and under that identification the boundary is the signed coboundary.
So H_k at form degree i is H^{3-k} at derivation degree i - |w|; the
identity is verified matrix by matrix (first_bridge_failure), and
homology_dims computes the shifted cohomology without checking it again.
Its closed form (ambient_homology_description) is the H^{3-k} module
regraded by |w|.

On the surface the four homology spaces are finite dimensional of dims
(mu, mu-1, mu, mu): two shifted copies of the Jacobian quotient at the ends,
the Euler-field multiples in the middle, and the gradients of u_1, ...,
u_{mu-1} in degree one.  Indexed by p = 3-k at derivation degree
i - |w|, the surface chain complex is one row of the table of complexes
that also holds both cohomology complexes (poissonsing.complexes): the
boundary stacked over the relations d(phi) ^ . + phi*. of its target.
"""

from poissonsing import (
    PoissonStructure,
    WeightSystem,
    ambient_homology_description,
    check_isolated,
    default_form_window,
    first_bridge_failure,
    homology_dims,
    parse_poly,
    surface_homology_description,
    surface_homology_dims,
)

P = PoissonStructure(parse_poly("x^3+y^3+z^3"), WeightSystem((1, 1, 1)))
M = check_isolated(P.phi, P.weights)
fw = default_form_window(P)
print("phi =", P.phi, " form-degree window =", fw)

# the boundary/coboundary bridge, checked entrywise on every window degree
print("\nboundary_k == (-1)^k * coboundary^{3-k}:")
for k in (1, 2, 3):
    failure = first_bridge_failure(P, k, fw)
    print("  k = %d across the window: %s" % (
        k, "holds" if failure is None else "fails at form degree %d" % failure))

print("\nambient homology dims (form grading) and closed-form generators:")
for k in range(4):
    desc = ambient_homology_description(P, M, k)
    print("  H_%d:" % k, dict(homology_dims(P, k, fw).dims))
    print("       free rank %d: %s" % (desc.free_rank(), ", ".join(
        "%s (deg %d)" % (g.label, g.degree) for g in desc.generators) or "none"))

print("\nsurface homology:")
for k in range(4):
    dims = surface_homology_dims(P, k, fw)
    gens = ", ".join(g.label for g in surface_homology_description(P, M, k).generators)
    print("  H_%d (total %d) = <%s>" % (k, dims.total(), gens))
