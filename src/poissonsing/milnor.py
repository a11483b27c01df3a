"""Jacobian ideal, Milnor number, and the isolated-singularity gate.

For weight-homogeneous phi, the quotient of A = F[x,y,z] by the ideal of the
three partial derivatives is graded; phi has an isolated singularity at the
origin exactly when that quotient is finite dimensional, and then its
dimension is the Milnor number mu.

Finiteness certificate: when the partials form a regular sequence the
quotient is a graded complete intersection whose top (socle) degree is
3*deg(phi) - 2*|w|.  The gate therefore computes the graded dimensions up to
socle + max(w) and accepts iff they vanish on the window
(socle, socle + max(w)]; vanishing there propagates to all higher degrees,
because any monomial of higher degree factors as x_j * m with m above the
socle.  Degree bound deg(phi) > max(w) is necessary for a singularity at the
origin and is checked first.

The ideal's degree-i piece is the image of the Koszul map D_1 (dot product
with grad(phi)) from X^1 at degree i - deg(phi).  The gate builds these
columns with operators.operator_matrix, which keeps no matrix, so a rejected
phi leaves none in the kept operator matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import Echelon
from .operators import operator_matrix
from .poisson import PoissonStructure
from .poly import Monomial, Poly, WeightSystem, weighted_degree

__all__ = [
    "MilnorData",
    "NotIsolated",
    "check_isolated",
    "socle_bound",
]


class NotIsolated(Exception):
    """The gate rejected phi; carries the offending degree and a witness."""

    def __init__(self, reason: str, witness_degree: int | None = None,
                 witness_monomial: Monomial | None = None):
        self.reason = reason
        self.witness_degree = witness_degree
        self.witness_monomial = witness_monomial
        msg = reason
        if witness_degree is not None:
            msg += " (witness degree %d" % witness_degree
            if witness_monomial is not None:
                msg += ", monomial %s" % Poly.monomial(witness_monomial)
            msg += ")"
        super().__init__(msg)


@dataclass(frozen=True)
class MilnorData:
    """Graded data of A/<dphi/dx, dphi/dy, dphi/dz> for an accepted phi.

    basis holds the canonical homogeneous monomial basis u_0=1, u_1, ... of
    the quotient as (monomial, degree) pairs: ascending degree, ascending
    monomial order within a degree.
    """

    socle_bound: int
    graded_dims: tuple[tuple[int, int], ...]
    mu: int
    basis: tuple[tuple[Monomial, int], ...]

    def basis_polys(self) -> list[tuple[Poly, int]]:
        return [(Poly.monomial(m), d) for m, d in self.basis]


def socle_bound(degree: int, w: WeightSystem) -> int:
    """Top degree of the Jacobian quotient when the gate accepts."""
    return 3 * degree - 2 * w.weight_sum


def _quotient_monomials(P: PoissonStructure, i: int) -> list[Monomial]:
    """Monomials of degree i spanning A_i modulo the Jacobian ideal.

    The ideal's degree-i piece is the image of (a,b,c) -> a*phi_x + b*phi_y
    + c*phi_z, the Koszul map D_1 from X^1 at degree i - deg(phi).  Greedy
    scan in the fixed (descending) monomial order: a monomial is kept iff it
    extends the echelon of that image plus the monomials already kept, so
    each is inserted once (an insert that does not extend it changes nothing).
    """
    jacobian = operator_matrix(P, "koszul1", i - P.degree)
    ech = Echelon()
    for col in jacobian.columns:
        ech.insert(col)
    kept: list[Monomial] = []
    for j, m in enumerate(jacobian.target.monomials[0]):
        if ech.insert({j: 1}):
            kept.append(m)
    return kept


@lru_cache(maxsize=None)
def check_isolated(phi: Poly, w: WeightSystem) -> MilnorData:
    """Gate: accept phi iff the Jacobian quotient is finite dimensional.

    Raises NotIsolated with the first non-vanishing window degree and a
    witness monomial on rejection.
    """
    d = weighted_degree(phi, w)
    if d is None:
        raise ValueError("phi must be non-zero and weight homogeneous")
    if d <= w.max_weight:
        raise NotIsolated(
            "weighted degree %d does not exceed every variable weight %s; "
            "the origin is not an isolated singular point" % (d, w)
        )
    bound = socle_bound(d, w)
    if bound < 0:
        # the quotient contains the constants, so a negative claimed top
        # degree is already contradictory
        raise NotIsolated(
            "socle bound %d is negative, yet the constants survive" % bound,
            witness_degree=0,
            witness_monomial=(0, 0, 0),
        )
    window_top = bound + w.max_weight
    P = PoissonStructure(phi, w)
    per_degree: dict[int, list[Monomial]] = {}
    for i in range(0, window_top + 1):
        kept = _quotient_monomials(P, i)
        if kept:
            per_degree[i] = kept
            if i > bound:
                raise NotIsolated(
                    "Jacobian quotient does not vanish above the socle bound %d" % bound,
                    witness_degree=i,
                    witness_monomial=kept[0],
                )
    degrees = sorted(per_degree.items())
    dims = tuple((i, len(kept)) for i, kept in degrees)
    # presentation within a degree is ascending in the monomial order
    basis = tuple((m, i) for i, kept in degrees for m in reversed(kept))
    return MilnorData(socle_bound=bound, graded_dims=dims, mu=sum(n for _, n in dims), basis=basis)
