from __future__ import annotations

import gc

import pytest

from poissonsing import (
    PoissonStructure,
    Poly,
    WeightSystem,
    check_isolated,
    parse_poly,
)
from poissonsing.linalg import Echelon, GradedOperatorMatrix, basis_of, rank_of_columns, symbol_of
from poissonsing.operators import named_operator, operator_matrix

# (phi, weights, expected Milnor number)
CATALOG = [
    ("x^2+y^2+z^2", (1, 1, 1), 1),
    ("x^3+y^3+z^3", (1, 1, 1), 8),
    ("x^4+y^4+z^4", (1, 1, 1), 27),
    ("x^2+y^3+z^5", (15, 10, 6), 8),
    ("x^3+y^4+z^2", (4, 3, 6), 6),
    ("x^2+y^3+z^6", (3, 2, 1), 10),
]


def structure(text: str, weights: tuple[int, int, int]) -> PoissonStructure:
    return PoissonStructure(parse_poly(text), WeightSystem(weights))


def live_matrices() -> list[GradedOperatorMatrix]:
    """Every operator matrix still alive after a garbage collection."""
    gc.collect()
    return [m for m in gc.get_objects() if isinstance(m, GradedOperatorMatrix)]


def columns_off(columns, skip: int) -> list:
    """The columns whose index is not a bit of skip, in order."""
    return [column for t, column in enumerate(columns) if not skip >> t & 1]


def planted(text: str, weights: tuple[int, int, int], **methods) -> PoissonStructure:
    """The structure of phi with the named methods replaced.  It is equal
    only to itself, so it shares no cache entry with the structure of phi."""
    identity = {"__slots__": (), "__eq__": object.__eq__, "__hash__": object.__hash__}
    cls = type("Planted", (PoissonStructure,), {**identity, **methods})
    return cls(parse_poly(text), WeightSystem(weights))


def boundary_plus(k0: int, extra):
    """A boundary method that adds extra(chain) to boundary_k0."""
    def boundary(self, k, chain):
        out = PoissonStructure.boundary(self, k, chain)
        return out + extra(chain) if k == k0 else out

    return boundary


@pytest.fixture(scope="session")
def catalog_structures():
    return [
        (structure(text, weights), mu) for text, weights, mu in CATALOG
    ]


@pytest.fixture(scope="session")
def sphere():
    return structure("x^2+y^2+z^2", (1, 1, 1))


@pytest.fixture(scope="session")
def cubic():
    return structure("x^3+y^3+z^3", (1, 1, 1))


@pytest.fixture(scope="session")
def cubic_milnor(cubic):
    return check_isolated(cubic.phi, cubic.weights)


def signed_coboundary_symbol(P, k):
    """The symbol of (-1)^k * delta^{3-k} for P.integral, extracted from the
    signed operator on Omega^k = X^{3-k}."""
    delta = named_operator(P.integral, "delta%d" % (3 - k))
    return symbol_of(lambda c: delta(c) * (-1) ** k, 1 if k == 3 else 3)


def form_basis(P, k, i):
    """The basis of Omega^k at form degree i: X^{3-k} at derivation degree
    i - |w|, whose component layout it shares."""
    return basis_of("X%d" % (3 - k), i - P.weight_sum, P.weights)


def boundary_matrix(P, k, i):
    """Matrix of the k-th boundary from Omega^k at form degree i into
    Omega^{k-1}, filled from P.boundary's own symbol (not from delta's):
    Omega^k at form degree i is X^{3-k} at derivation degree i - |w|."""
    return operator_matrix(P, "boundary%d" % k, i - P.weight_sum)


def basis_element(basis, j):
    """The j-th basis cochain of a graded piece: one monomial in one component."""
    return basis.element_from_coords({j: 1})


def oracle_columns(op, source, target):
    """Columns of op's matrix, by evaluating op on every source basis element."""
    return [target.coords_of(op(basis_element(source, j))) for j in range(source.dim)]


def compose_columns(outer, inner):
    """The columns of the matrix of outer after inner, as the product of
    their sparse columns; zero entries dropped."""
    assert inner.target.dim == outer.source.dim
    composed = []
    for col in inner.columns:
        acc = {}
        for k, c in col.items():
            for i, v in outer.columns[k].items():
                acc[i] = acc.get(i, 0) + c * v
        composed.append({i: v for i, v in acc.items() if v})
    return composed


def identity_matrix(basis):
    return GradedOperatorMatrix(basis, basis, [{j: 1} for j in range(basis.dim)])


def entry(m, i, j):
    return m.columns[j].get(i, 0)


def to_dense(m):
    rows, cols = m.shape
    return [[entry(m, i, j) for j in range(cols)] for i in range(rows)]


def graded_components(f, w):
    """Split f into its weight-homogeneous components, keyed by degree."""
    buckets = {}
    for m, c in f.terms.items():
        buckets.setdefault(w.monomial_degree(m), {})[m] = c
    return {d: Poly(t) for d, t in sorted(buckets.items())}


def jacobian_columns(P, i):
    """(A_i, columns spanning the Jacobian ideal's degree-i piece): the image
    of (a,b,c) -> a*phi_x + b*phi_y + c*phi_z, the Koszul map from X^1."""
    m = operator_matrix(P, "koszul1", i - P.degree)
    return m.target, m.columns


def jacobian_graded_dim(phi, w, i):
    """dim of the degree-i piece of A modulo the Jacobian ideal of phi."""
    target, cols = jacobian_columns(PoissonStructure(phi, w), i)
    return target.dim - rank_of_columns(cols)


def echelon_of(columns):
    ech = Echelon()
    for col in columns:
        ech.insert(col)
    return ech


def echelon_rank(ech):
    """The rank of an echelon: the number of its stored pivot rows."""
    return len(ech._rows)


def echelon_rows(ech):
    """Copies of the stored rows, in pivot order."""
    return [dict(ech._rows[p]) for p in sorted(ech._rows)]


def image_basis(m):
    return echelon_rows(echelon_of(m.columns))


def cokernel_representatives(m):
    """Target basis cochains spanning target/image, greedy in basis order."""
    ech = echelon_of(m.columns)
    chosen = []
    for t in range(m.target.dim):
        e_t = {t: 1}
        if not ech.contains(e_t):
            chosen.append((t, basis_element(m.target, t)))
            ech.insert(e_t)
    return chosen
