"""Formal vector calculus on triples of polynomials.

Elements of A^3 are vector-valued polynomials; gradient, curl, divergence,
dot and cross product act formally on exact Poly components.  The cross
product and curl use the right-handed orientation, so the usual identities

    curl(f*g) = grad(f) x g + f*curl(g)
    div(f*g)  = grad(f).g + f*div(g)
    div(f x g) = curl(f).g - f.curl(g)

hold exactly, as do the weighted Euler formulas grad(f).e_w = deg(f)*f and
div(f*e_w) = (deg(f)+|w|)*f for weight-homogeneous f, where e_w is the
weighted Euler field (w1*x, w2*y, w3*z).

VecPoly is a slotted immutable triple: equal only to a VecPoly with equal
components, hashable, and refusing attribute assignment.  Its operations and
dot, cross, curl and divergence unpack the three components directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .poly import Poly, Scalar, WeightSystem


class VecPoly:
    """An ordered triple of polynomials; immutable, equal only to a VecPoly
    with equal components, and hashable."""

    __slots__ = ("components",)

    components: tuple[Poly, Poly, Poly]

    def __init__(self, components: tuple[Poly, Poly, Poly]):
        _set_components(self, components)

    def __setattr__(self, name, value):
        raise AttributeError("VecPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("VecPoly is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is VecPoly:
            return self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.components,))

    @classmethod
    def zero(cls) -> "VecPoly":
        z = Poly.zero()
        return cls((z, z, z))

    def __getitem__(self, i: int) -> Poly:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def is_zero(self) -> bool:
        f1, f2, f3 = self.components
        return not (f1 or f2 or f3)

    def __add__(self, other: "VecPoly") -> "VecPoly":
        f1, f2, f3 = self.components
        g1, g2, g3 = other.components
        return VecPoly((f1 + g1, f2 + g2, f3 + g3))

    def __sub__(self, other: "VecPoly") -> "VecPoly":
        f1, f2, f3 = self.components
        g1, g2, g3 = other.components
        return VecPoly((f1 - g1, f2 - g2, f3 - g3))

    def __neg__(self) -> "VecPoly":
        f1, f2, f3 = self.components
        return VecPoly((-f1, -f2, -f3))

    def __mul__(self, other: Union[Poly, Scalar]) -> "VecPoly":
        f1, f2, f3 = self.components
        return VecPoly((f1 * other, f2 * other, f3 * other))

    def __rmul__(self, other: Union[Poly, Scalar]) -> "VecPoly":
        if isinstance(other, (int, Fraction, Poly)):
            return self * other
        return NotImplemented

    def __str__(self) -> str:
        return "(%s, %s, %s)" % self.components

    def __repr__(self) -> str:
        return "VecPoly(%s, %s, %s)" % self.components


# sets the slot directly, past the __setattr__ that refuses every assignment
_set_components = VecPoly.components.__set__  # type: ignore[attr-defined]


def grad(f: Poly) -> VecPoly:
    return VecPoly((f.partial(0), f.partial(1), f.partial(2)))


def curl(v: VecPoly) -> VecPoly:
    f1, f2, f3 = v.components
    return VecPoly(
        (
            f3.partial(1) - f2.partial(2),
            f1.partial(2) - f3.partial(0),
            f2.partial(0) - f1.partial(1),
        )
    )


def divergence(v: VecPoly) -> Poly:
    f1, f2, f3 = v.components
    return f1.partial(0) + f2.partial(1) + f3.partial(2)


def dot(u: VecPoly, v: VecPoly) -> Poly:
    u1, u2, u3 = u.components
    v1, v2, v3 = v.components
    return u1 * v1 + u2 * v2 + u3 * v3


def cross(u: VecPoly, v: VecPoly) -> VecPoly:
    u1, u2, u3 = u.components
    v1, v2, v3 = v.components
    return VecPoly((u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1))


def euler_field(w: WeightSystem) -> VecPoly:
    """The weighted Euler field (w1*x, w2*y, w3*z); its divergence is |w|."""
    w1, w2, w3 = w.weights
    return VecPoly(
        (
            Poly.monomial((1, 0, 0), w1),
            Poly.monomial((0, 1, 0), w2),
            Poly.monomial((0, 0, 1), w3),
        )
    )
