from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poissonsing import (
    NotHomogeneous,
    PoissonStructure,
    Poly,
    VecPoly,
    WeightSystem,
    euler_field,
    parse_poly,
)

from .test_poly import random_poly
from .test_vectorcalc import random_vec

W111 = WeightSystem((1, 1, 1))


def independent_partial(p: Poly, axis: int) -> Poly:
    # term-by-term differentiation without going through Poly.partial
    out = Poly.zero()
    for m, c in p:
        if m[axis] == 0:
            continue
        lowered = list(m)
        lowered[axis] -= 1
        out = out + Poly.monomial(tuple(lowered), c * m[axis])
    return out


class TestBracket:
    def test_coordinate_brackets_give_partials(self, sphere):
        x, y, z = (Poly.variable(a) for a in range(3))
        assert sphere.bracket(x, y) == parse_poly("2*z")
        assert sphere.bracket(y, z) == parse_poly("2*x")
        assert sphere.bracket(z, x) == parse_poly("2*y")

    def test_xyz_bracket_against_differentiation_oracle(self):
        P = PoissonStructure(parse_poly("x*y*z"), W111)
        y, z = Poly.variable(1), Poly.variable(2)
        assert P.bracket(y, z) == independent_partial(P.phi, 0)
        assert P.bracket(y, z) == parse_poly("y*z")

    def test_antisymmetry_and_self_bracket(self, cubic):
        rng = random.Random(9)
        for _ in range(100):
            f, g = random_poly(rng), random_poly(rng)
            assert cubic.bracket(f, f).is_zero()
            assert cubic.bracket(f, g) == -cubic.bracket(g, f)

    def test_leibniz_rule(self, cubic):
        rng = random.Random(10)
        for _ in range(60):
            f, g, h = (random_poly(rng, 2, 3) for _ in range(3))
            assert cubic.bracket(f * g, h) == f * cubic.bracket(g, h) + cubic.bracket(f, h) * g


class TestJacobi:
    def test_coordinates_for_fermat_cubic(self, cubic):
        x, y, z = (Poly.variable(a) for a in range(3))
        assert cubic.jacobiator(x, y, z).is_zero()

    def test_equal_arguments(self, cubic):
        f = parse_poly("x^2+y*z")
        assert cubic.jacobiator(f, f, parse_poly("z")).is_zero()

    def test_randomized_for_weighted_structure(self):
        P = PoissonStructure(parse_poly("x^2+y^3+z^5"), WeightSystem((15, 10, 6)))
        rng = random.Random(11)
        for _ in range(60):
            f, g, h = (random_poly(rng, 2, 3) for _ in range(3))
            assert P.jacobiator(f, g, h).is_zero()


class TestCoboundaries:
    def test_delta0_kills_phi(self, cubic, sphere):
        assert cubic.delta0(cubic.phi).is_zero()
        assert sphere.delta0(sphere.phi).is_zero()

    def test_delta0_cross_product_oracle(self, sphere):
        # (1,0,0) x (2x,2y,2z) computed by hand
        assert sphere.delta0(Poly.variable(0)) == VecPoly(
            (Poly.zero(), parse_poly("-2*z"), parse_poly("2*y"))
        )

    def test_delta1_of_euler_field(self, catalog_structures):
        for P, _ in catalog_structures:
            e = euler_field(P.weights)
            expected = P.nabla_phi * Fraction(-P.coboundary_degree)
            assert P.delta1(e) == expected

    def test_delta_squared_zero_randomized(self, catalog_structures):
        rng = random.Random(12)
        for P, _ in catalog_structures:
            for _ in range(35):
                f = random_poly(rng, 2, 3)
                v = random_vec(rng)
                assert P.delta1(P.delta0(f)).is_zero()
                assert P.delta2(P.delta1(v)).is_zero()

    def test_delta2_equals_minus_div_of_cross(self, cubic):
        from poissonsing import cross, divergence

        rng = random.Random(13)
        for _ in range(60):
            v = random_vec(rng)
            assert cubic.delta2(v) == -divergence(cross(v, cubic.nabla_phi))

    def test_casimir_commutation(self, catalog_structures):
        rng = random.Random(14)
        for P, _ in catalog_structures:
            phi = P.phi
            for _ in range(25):
                f, v = random_poly(rng, 2, 3), random_vec(rng)
                assert P.delta0(phi * f) == P.delta0(f) * phi
                assert P.delta1(v * phi) == P.delta1(v) * phi
                assert P.delta2(v * phi) == P.delta2(v) * phi

    def test_degree_shift_bookkeeping(self, cubic):
        from poissonsing import basis_of, matrix_of, symbol_of

        # outputs of delta on a graded piece land exactly in the shifted piece
        for k, i in [(0, 4), (1, 2), (2, 3)]:
            src = basis_of("X%d" % k, i, cubic.weights)
            tgt = basis_of("X%d" % (k + 1), i + cubic.coboundary_degree, cubic.weights)
            symbol = symbol_of(lambda c: cubic.delta(k, c), len(src.monomials))
            matrix_of(symbol, src, tgt)  # DegreeMismatch would raise

    def test_invalid_k(self, sphere):
        # delta^3 would map into X^4 = 0; nothing defines it
        for k in (-1, 3):
            with pytest.raises(ValueError):
                sphere.delta(k, Poly.one())


class TestBoundary:
    def test_invalid_k(self, sphere):
        with pytest.raises(ValueError):
            sphere.boundary(0, Poly.one())
        with pytest.raises(ValueError):
            sphere.boundary(4, Poly.one())

    def test_volume_form_of_constants_dies(self, catalog_structures):
        for P, _ in catalog_structures:
            assert P.boundary(3, Poly.one()).is_zero()

    def test_boundary_squared_vanishes_randomized(self, cubic):
        rng = random.Random(15)
        for _ in range(60):
            v = random_vec(rng)
            f = random_poly(rng)
            assert cubic.boundary(1, cubic.boundary(2, v)).is_zero()
            assert cubic.boundary(2, cubic.boundary(3, f)).is_zero()

    def test_boundary_of_exact_one_form_is_bracket(self, cubic):
        # boundary(f dg) = {f, g}: f dg corresponds to f * grad(g)
        from poissonsing import grad

        rng = random.Random(16)
        for _ in range(60):
            f, g = random_poly(rng, 2, 3), random_poly(rng, 2, 3)
            assert cubic.boundary(1, grad(g) * f) == cubic.bracket(f, g)


class TestConstruction:
    def test_rejects_inhomogeneous_phi(self):
        with pytest.raises(NotHomogeneous):
            PoissonStructure(parse_poly("x^2+y^3"), W111)

    def test_rejects_zero_phi(self):
        with pytest.raises(ValueError):
            PoissonStructure(Poly.zero(), W111)

    def test_degree_data(self):
        P = PoissonStructure(parse_poly("x^2+y^3+z^5"), WeightSystem((15, 10, 6)))
        assert P.degree == 30
        assert P.weight_sum == 31
        assert P.coboundary_degree == -1
