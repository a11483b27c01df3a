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
chain (homology) boundary on Kahler forms is the Koszul-Brylinski formula;
under Omega^k = X^{3-k} it is (-1)^k * delta^{3-k}, certified, and that sign
convention is echoed in reports.
"""

from __future__ import annotations

import math

from .poly import Poly, WeightSystem, weighted_degree
from .vectorcalc import VecPoly, cross, curl, divergence, dot, grad

# (a, a+1, a+2) mod 3: dx_(a+1) ^ dx_(a+2) is the a-th coordinate of 2-forms
CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class PoissonStructure:
    """Immutable bundle of phi, its weights, degree data, cached gradient, the differentials of
    the coordinate brackets, and integral: c*phi's structure (c = lcm of phi's denominators).

    The constructor only requires weight homogeneity; whether phi has an
    isolated singularity is a separate gate (see the milnor module).
    """

    __slots__ = ("phi", "weights", "degree", "coboundary_degree", "nabla_phi", "d_brackets",
                 "integral", "_hash")

    def __init__(self, phi: Poly, weights: WeightSystem):
        d = weighted_degree(phi, weights)
        if d is None:
            raise ValueError("phi must be non-zero")
        self.phi = phi
        self.weights = weights
        self.degree: int = d
        self.coboundary_degree: int = d - weights.weight_sum
        self.nabla_phi = grad(phi)
        xs = [Poly.variable(a) for a in range(3)]
        # d{x_u, x_v} for the (a, u, v) of CYCLIC: the coordinate brackets' differentials
        self.d_brackets = tuple(grad(self.bracket(xs[u], xs[v])) for _, u, v in CYCLIC)
        c = math.lcm(*(v.denominator for v in phi.terms.values()))
        self.integral = type(self)(c * phi, weights) if c > 1 else self
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
        """delta^k for k in 0..2; delta^3 maps into the zero space X^4, and no
        reader needs it, so k = 3 is refused like any other k."""
        if k not in (0, 1, 2):
            raise ValueError("k must be in 0..2")
        return (self.delta0, self.delta1, self.delta2)[k](cochain)

    # -- homology boundary ----------------------------------------------------

    def boundary(self, k: int, chain):
        """The Koszul-Brylinski boundary of Kahler k-forms, from the bracket:
        d(f dx_I) = sum_p (-1)^(p+1) {f, x_(i_p)} dx_(I - i_p)
                    + sum_(p<q) (-1)^(p+q) f d{x_(i_p), x_(i_q)} ^ dx_(I - i_p - i_q)
        on sum_a v_a dx_a (k = 1), sum_a v_a dx_u ^ dx_v over the (a, u, v) of
        CYCLIC (k = 2) and f dx ^ dy ^ dz (k = 3).  It never reads delta, so
        boundary_k = (-1)^k * delta^{3-k} is certified, not assumed
        (homology.duality_identity_holds)."""
        nabla = self.nabla_phi

        def with_x(f: Poly, a: int) -> Poly:  # {f, x_a} = phi_u f_v - phi_v f_u
            _, u, v = CYCLIC[a]
            return nabla[u] * f.partial(v) - nabla[v] * f.partial(u)

        if k == 1:  # d(f dx_a) = {f, x_a}
            return sum((with_x(f, a) for a, f in enumerate(chain)), Poly.zero())
        if k == 2:  # d(f dx_u ^ dx_v) = {f, x_u} dx_v - {f, x_v} dx_u - f d{x_u, x_v}
            out = [Poly.zero()] * 3
            for a, u, v in CYCLIC:
                out[v] += with_x(chain[a], u)
                out[u] -= with_x(chain[a], v)
            terms = sum((d * f for d, f in zip(self.d_brackets, chain)), VecPoly.zero())
            return VecPoly(tuple(out)) - terms  # type: ignore[arg-type]
        if k == 3:  # {f, x_a} leaves dx_u ^ dx_v, and so do -f d{x_a, x_u} ^ dx_v and
            # -f d{x_v, x_a} ^ dx_u: with d = d_brackets, the terms -f d[v][u] and +f d[u][v]
            d = self.d_brackets
            return VecPoly(tuple(  # type: ignore[arg-type]
                with_x(chain, a) + (d[u][v] - d[v][u]) * chain for a, u, v in CYCLIC
            ))
        raise ValueError("boundary is defined for k in 1..3")
