"""
Poisson homology and the duality with cohomology
================================================

On the polynomial algebra the chain spaces of differential forms identify
with the multiderivation spaces (Omega^k with X^{3-k}, shifting degrees by
|w|), and under that identification the boundary, defined by the
Koszul-Brylinski formula in the bracket, is the signed coboundary.  So H_k
at form degree i is H^{3-k} at derivation degree i - |w|.  Both operators
have order at most one, so the identity holds in every degree once their
symbols agree on the probes e_s and x_a*e_s: duality_identity_holds checks
that once per structure.  homology_dims runs ambient homology on its own row
of the table of complexes: while the certificate holds, the row reads the
ranks of the cohomology stacks (the two stacks have one span); were it to
fail, the row would rank the boundary itself, and a wrong boundary would
show as a mismatch.  The closed form (ambient_homology_description) is the
H^{3-k} module regraded by |w|.

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
    duality_identity_holds,
    homology_dims,
    parse_poly,
    surface_homology_description,
    surface_homology_dims,
)

P = PoissonStructure(parse_poly("x^3+y^3+z^3"), WeightSystem((1, 1, 1)))
M = check_isolated(P.phi, P.weights)
fw = default_form_window(P)
print("phi =", P.phi, " form-degree window =", fw)

# the boundary/coboundary bridge, certified once for every degree
cases, failure = duality_identity_holds(P)
print("\nboundary_k == (-1)^k * coboundary^{3-k}, k = 1..3, on %d probes: %s" % (
    cases, failure or "holds in every degree"))

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
