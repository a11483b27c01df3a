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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .poly import Poly, Scalar, WeightSystem


@dataclass(frozen=True)
class VecPoly:
    """An ordered triple of polynomials."""

    components: tuple[Poly, Poly, Poly]

    @classmethod
    def zero(cls) -> "VecPoly":
        z = Poly.zero()
        return cls((z, z, z))

    def __getitem__(self, i: int) -> Poly:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "VecPoly") -> "VecPoly":
        return VecPoly(tuple(a + b for a, b in zip(self, other)))  # type: ignore[arg-type]

    def __sub__(self, other: "VecPoly") -> "VecPoly":
        return VecPoly(tuple(a - b for a, b in zip(self, other)))  # type: ignore[arg-type]

    def __neg__(self) -> "VecPoly":
        return VecPoly(tuple(-a for a in self))  # type: ignore[arg-type]

    def __mul__(self, other: Union[Poly, Scalar]) -> "VecPoly":
        return VecPoly(tuple(c * other for c in self))  # type: ignore[arg-type]

    def __rmul__(self, other: Union[Poly, Scalar]) -> "VecPoly":
        if isinstance(other, (int, Fraction, Poly)):
            return VecPoly(tuple(other * c if isinstance(other, (int, Fraction)) else c * other for c in self))  # type: ignore[arg-type]
        return NotImplemented

    def __str__(self) -> str:
        return "(%s, %s, %s)" % self.components

    def __repr__(self) -> str:
        return "VecPoly(%s, %s, %s)" % self.components


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
    return v[0].partial(0) + v[1].partial(1) + v[2].partial(2)


def dot(u: VecPoly, v: VecPoly) -> Poly:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: VecPoly, v: VecPoly) -> VecPoly:
    return VecPoly(
        (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
    )


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
