"""The Poisson bracket attached to a polynomial and its (co)boundary operators.

A weight-homogeneous phi in F[x,y,z] determines the bracket

    {f, g} = grad(phi) . (grad(f) x grad(g)),

the unique Poisson bracket with {x,y} = d(phi)/dz, {y,z} = d(phi)/dx,
{z,x} = d(phi)/dy.  Under the identifications X^0 = X^3 = A and
X^1 = X^2 = A^3, the cochain complex has the compact coboundaries

    delta0(f) = grad(f) x grad(phi)
    delta1(v) = -grad(v . grad(phi)) + div(v) * grad(phi)
    delta2(v) = -grad(phi) . curl(v)

each raising derivation degree by the common shift deg(phi) - |w|.  The
chain (homology) boundary on Omega^k = X^{3-k} is (-1)^k * delta^{3-k}; the
sign convention is fixed here once and echoed in reports.
"""

from __future__ import annotations

from .poly import Poly, WeightSystem, weighted_degree
from .vectorcalc import VecPoly, cross, curl, divergence, dot, grad


class PoissonStructure:
    """Immutable bundle of phi, its weights, degree data and cached gradient.

    The constructor only requires weight homogeneity; whether phi has an
    isolated singularity is a separate gate (see the milnor module).
    """

    __slots__ = ("phi", "weights", "degree", "coboundary_degree", "nabla_phi", "_hash")

    def __init__(self, phi: Poly, weights: WeightSystem):
        d = weighted_degree(phi, weights)
        if d is None:
            raise ValueError("phi must be non-zero")
        self.phi = phi
        self.weights = weights
        self.degree: int = d
        self.coboundary_degree: int = d - weights.weight_sum
        self.nabla_phi = grad(phi)
        self._hash: int | None = None

    @property
    def weight_sum(self) -> int:
        return self.weights.weight_sum

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PoissonStructure):
            return self.phi == other.phi and self.weights == other.weights
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.phi, self.weights))
        return self._hash

    def __repr__(self) -> str:
        return "PoissonStructure(%s, weights=%s)" % (self.phi, self.weights)

    # -- bracket ----------------------------------------------------------

    def bracket(self, f: Poly, g: Poly) -> Poly:
        """{f, g} = det(grad f, grad g, grad phi)."""
        return dot(self.nabla_phi, cross(grad(f), grad(g)))

    def jacobiator(self, f: Poly, g: Poly, h: Poly) -> Poly:
        """{{f,g},h} + {{g,h},f} + {{h,f},g}.

        It is an alternating triderivation, so it vanishes identically iff
        jacobiator(x, y, z) = 0: the coordinate certificate that
        suites.identities_suite checks (tested, not assumed)."""
        b = self.bracket
        return b(b(f, g), h) + b(b(g, h), f) + b(b(h, f), g)

    # -- coboundaries -------------------------------------------------------

    def delta0(self, f: Poly) -> VecPoly:
        return cross(grad(f), self.nabla_phi)

    def delta1(self, v: VecPoly) -> VecPoly:
        return -grad(dot(v, self.nabla_phi)) + self.nabla_phi * divergence(v)

    def delta2(self, v: VecPoly) -> Poly:
        return -dot(self.nabla_phi, curl(v))

    def delta(self, k: int, cochain):
        """delta^k; k=3 is the zero map to the (trivial) space of 4-derivations."""
        if k == 0:
            return self.delta0(cochain)
        if k == 1:
            return self.delta1(cochain)
        if k == 2:
            return self.delta2(cochain)
        if k == 3:
            return Poly.zero()
        raise ValueError("k must be in 0..3")

    # -- homology boundary ----------------------------------------------------

    def boundary(self, k: int, chain):
        """Boundary on k-forms under Omega^k = X^{3-k}: (-1)^k * delta^{3-k}.

        k=1 and k=2 take a VecPoly (1-forms resp. 2-forms in coordinates),
        k=3 takes a Poly (coefficient of the volume form).
        """
        if k == 1:
            return -self.delta2(chain)
        if k == 2:
            return self.delta1(chain)
        if k == 3:
            return -self.delta0(chain)
        raise ValueError("boundary is defined for k in 1..3")
