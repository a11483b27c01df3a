from __future__ import annotations


from poissonsing import (
    PoissonStructure,
    WeightSystem,
    brute_force_dims,
    check_isolated,
    closed_form,
    default_window,
    predicted_dims,
    surface_brute_force_dims,
    surface_closed_form,
)
from poissonsing.cohomology import FINITE, FREE, complex_dims
from poissonsing.complexes import complex_dim, space_name
from poissonsing.suites import run_suite

from .conftest import compose_columns, planted, structure

W111 = WeightSystem((1, 1, 1))


class TestClosedForms:
    def test_sphere_specialization(self, sphere):
        M = check_isolated(sphere.phi, sphere.weights)
        assert closed_form(sphere, M, 1).zero  # degree 2 != |w| = 3
        assert closed_form(sphere, M, 2).zero  # mu = 1, no qualifying basis element
        h3 = closed_form(sphere, M, 3)
        assert h3.free_rank() == 1 and h3.generators[0].degree == -3

    def test_cubic_h1_is_euler_line(self, cubic, cubic_milnor):
        h1 = closed_form(cubic, cubic_milnor, 1)
        assert [g.label for g in h1.generators] == ["euler_field"]
        assert h1.generators[0].degree == 0

    def test_cubic_h2_shape(self, cubic, cubic_milnor):
        h2 = closed_form(cubic, cubic_milnor, 2)
        free = [g for g in h2.generators if g.kind == FREE]
        finite = [g for g in h2.generators if g.kind == FINITE]
        # seven gradient generators plus the bracket class itself, no finite part
        assert len(free) == 8 and not finite
        assert sum(1 for g in free if g.label == "u0_grad_phi") == 1

    def test_weighted_entry_ranks(self):
        P = structure("x^2+y^3+z^5", (15, 10, 6))
        M = check_isolated(P.phi, P.weights)
        assert closed_form(P, M, 1).zero
        assert closed_form(P, M, 2).free_rank() == 7
        assert closed_form(P, M, 3).free_rank() == 8

    def test_quartic_h2_mixes_free_and_finite(self):
        P = structure("x^4+y^4+z^4", (1, 1, 1))
        M = check_isolated(P.phi, P.weights)
        h2 = closed_form(P, M, 2)
        assert h2.free_rank() == 26  # 23 gradients + 3 multiples of grad(phi)
        assert h2.finite_count() == 3


class TestPredictedDims:
    def test_casimirs_of_cubic(self, cubic, cubic_milnor):
        dims = predicted_dims(closed_form(cubic, cubic_milnor, 0), (0, 9))
        assert dims.as_dict() == {0: 1, 3: 1, 6: 1, 9: 1}

    def test_h3_of_sphere(self, sphere):
        M = check_isolated(sphere.phi, sphere.weights)
        dims = predicted_dims(closed_form(sphere, M, 3), (-3, 3))
        assert dims.as_dict() == {-3: 1, -1: 1, 1: 1, 3: 1}

    def test_zero_module(self, sphere):
        M = check_isolated(sphere.phi, sphere.weights)
        assert predicted_dims(closed_form(sphere, M, 1), (-3, 3)).as_dict() == {}


class TestBruteForce:
    def test_constants_are_casimirs(self, catalog_structures):
        for P, _ in catalog_structures:
            assert complex_dim(P, "cohomology", "ambient", 0, 0) == 1

    def test_cubic_h1_low_degrees(self, cubic):
        dims = [complex_dim(cubic, "cohomology", "ambient", 1, i) for i in range(4)]
        assert dims == [1, 0, 0, 1]

    def test_sphere_h3_bottom(self, sphere):
        assert complex_dim(sphere, "cohomology", "ambient", 3, -3) == 1

    def test_koszul_and_de_rham_spaces_are_named_after_their_row(self, cubic):
        # the Koszul homology at X^0 is the Jacobian quotient, dims 1, 3, 3, 1
        koszul = complex_dims(cubic, "koszul", "ambient", 0, (0, 3))
        assert (koszul.space, koszul.dims) == ("koszul_H0", ((0, 1), (1, 3), (2, 3), (3, 1)))
        assert complex_dims(cubic, "de_rham", "ambient", 3, (-3, 0)).space == "de_rham_H3"
        assert complex_dims(cubic, "homology", "ambient", 0, (0, 0)).space == "H_0_ambient"
        # every row of A/<phi> names its side, the Koszul row as the others
        assert space_name("koszul", "surface", 1) == "koszul_H1_surface"
        assert complex_dims(cubic, "koszul", "surface", 1, (0, 0)).space == "koszul_H1_surface"
        assert [space_name(block, "ambient", 2) for block in ("koszul", "de_rham")] == [
            "koszul_H2", "de_rham_H2"
        ]

    def test_match_on_default_windows(self, catalog_structures):
        for P, _ in catalog_structures:
            M = check_isolated(P.phi, P.weights)
            window = default_window(P)
            for k in range(4):
                predicted = predicted_dims(closed_form(P, M, k), window)
                computed = brute_force_dims(P, k, window)
                assert computed.matches(predicted), (str(P.phi), k)

    def test_match_below_the_graded_bottom(self, cubic, cubic_milnor):
        # degrees below -|w| have empty pieces on both sides
        window = (-8, 5)
        for k in range(4):
            assert brute_force_dims(cubic, k, window).matches(
                predicted_dims(closed_form(cubic, cubic_milnor, k), window)
            )
            assert surface_brute_force_dims(cubic, k, window).matches(
                predicted_dims(surface_closed_form(cubic, cubic_milnor, k), window)
            )


class TestSurface:
    def test_casimirs_are_constants(self, catalog_structures):
        for P, _ in catalog_structures:
            dims = surface_brute_force_dims(P, 0, (-2, max(6, P.degree + 1)))
            assert dims.as_dict() == {0: 1}, str(P.phi)

    def test_cubic_h1_concentrated_at_zero(self, cubic):
        dims = surface_brute_force_dims(cubic, 1, (-3, 9))
        assert dims.as_dict() == {0: 1}

    def test_top_cohomology_vanishes(self, catalog_structures):
        for P, _ in catalog_structures:
            dims = surface_brute_force_dims(P, 3, (-P.weight_sum, P.degree + 2))
            assert dims.as_dict() == {}

    def test_quartic_h1_h2_have_dimension_three(self):
        P = structure("x^4+y^4+z^4", (1, 1, 1))
        M = check_isolated(P.phi, P.weights)
        h1 = surface_closed_form(P, M, 1)
        h2 = surface_closed_form(P, M, 2)
        assert len(h1.generators) == 3
        assert [g.degree for g in h1.generators] == [1, 1, 1]
        assert len(h2.generators) == 3
        assert [g.degree for g in h2.generators] == [2, 2, 2]

    def test_weighted_small_degree_cases_vanish(self):
        for text, weights in [("x^2+y^3+z^5", (15, 10, 6)), ("x^3+y^4+z^2", (4, 3, 6))]:
            P = structure(text, weights)
            M = check_isolated(P.phi, P.weights)
            assert surface_closed_form(P, M, 1).zero
            assert surface_closed_form(P, M, 2).zero

    def test_match_on_default_windows(self, cubic, cubic_milnor):
        window = default_window(cubic)
        for k in range(4):
            predicted = predicted_dims(surface_closed_form(cubic, cubic_milnor, k), window)
            computed = surface_brute_force_dims(cubic, k, window)
            assert computed.matches(predicted)


class TestStructuralChecks:
    def test_cohomology_suite_passes(self, cubic):
        for res in run_suite(cubic, "cohomology", default_window(cubic))[0]:
            assert res.passed, res.line()

    def test_surface_suite_passes_for_weighted_entry(self):
        P = structure("x^2+y^3+z^6", (3, 2, 1))
        for res in run_suite(P, "surface", default_window(P))[0]:
            assert res.passed, res.line()

    def test_coboundary_squared_zero_as_matrices(self, catalog_structures):
        from poissonsing.operators import operator_matrix

        for P, _ in catalog_structures[:2] + catalog_structures[3:4]:
            n = P.coboundary_degree
            for k in (0, 1):
                for i in range(-P.weight_sum, P.degree + 3):
                    inner = operator_matrix(P, "delta%d" % k, i)
                    outer = operator_matrix(P, "delta%d" % (k + 1), i + n)
                    assert not any(compose_columns(outer, inner)), (str(P.phi), k, i)

    def test_bracket_class_detection(self, sphere, cubic):
        # the structure class is a coboundary exactly when deg(phi) != |w|
        from poissonsing.linalg import rank_of_columns
        from poissonsing.operators import operator_matrix

        for P, expected_exact in ((sphere, True), (cubic, False)):
            d1 = operator_matrix(P, "delta1", 0)
            vec = d1.target.coords_of(P.nabla_phi)
            in_image = rank_of_columns(list(d1.columns) + [vec]) == rank_of_columns(d1.columns)
            assert in_image is expected_exact

    def test_a_delta2_that_misses_gradients_fails_on_a_probe(self):
        # delta2 plus the first component: grad(x) = e_1 is no longer a
        # 2-cocycle, and x is the second probe
        def delta2(self, v):
            return PoissonStructure.delta2(self, v) + v[0]

        P = planted("x^3+y^3+z^3", (1, 1, 1), delta2=delta2)
        results = run_suite(P, "koszul", (-3, 3))[0]
        spanned = [r for r in results if r.name == "two_cocycles_are_gradients_plus_multiples"]
        assert [(r.passed, r.cases, r.details) for r in spanned] == [
            (False, 2, "a gradient is not a 2-cocycle at f=x")
        ]

    def test_a_constrained_divergence_fails_rigidity(self, monkeypatch, cubic):
        # with the constraint g . grad(phi) = 0 dropped (a zero Koszul map on
        # X^1), every g counts, and phi^0 = 1 = div(x, 0, 0) is a divergence
        from poissonsing import suites

        operator_columns = suites.operator_columns

        def koszul_without_dot(P, name, i, skip=0):
            columns = operator_columns(P, name, i, skip)
            return [{}] * len(columns) if name == "koszul1" else columns

        monkeypatch.setattr(suites, "operator_columns", koszul_without_dot)
        results, _ = run_suite(cubic, "cohomology", default_window(cubic))
        rigidity = [r for r in results if r.name == "divergence_rigidity_alpha_zero"]
        assert [(r.passed, r.cases, r.details) for r in rigidity] == [
            (False, 1, "phi^0 is a constrained divergence")
        ]
