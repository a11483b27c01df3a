from __future__ import annotations

import pytest

from poissonsing import PoissonStructure, WeightSystem, check_isolated, parse_poly

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


def oracle_columns(op, source, target):
    """Columns of op's matrix, by evaluating op on every source basis element."""
    return [target.coords_of(op(source.element(j))) for j in range(source.dim)]
