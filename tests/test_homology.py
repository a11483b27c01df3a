from __future__ import annotations

import itertools

import pytest

from poissonsing import (
    PoissonStructure,
    Poly,
    VecPoly,
    ambient_homology_description,
    brute_force_dims,
    check_isolated,
    default_form_window,
    duality_identity_holds,
    grad,
    homology_dims,
    predicted_dims,
    surface_homology_description,
    surface_homology_dims,
)
from poissonsing import complexes, operators
from poissonsing.cohomology import default_window
from poissonsing.homology import projection_commutes
from poissonsing.linalg import Symbol
from poissonsing.operators import operator_matrix
from poissonsing.suites import homology_suite, run_suite

from .conftest import basis_element, boundary_matrix, boundary_plus, form_basis, planted, structure

# ---------------------------------------------------------------------------
# Independent oracle: the boundary on Kahler forms evaluated from its
# defining formula, using only the bracket and a small exterior algebra.
# Forms are maps {ascending index tuple: Poly}; dx_0 ^ dx_1 is key (0, 1).
# ---------------------------------------------------------------------------

Form = dict[tuple[int, ...], Poly]


def _sorted_with_sign(idxs: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    if len(set(idxs)) != len(idxs):
        return None
    order = sorted(range(len(idxs)), key=lambda p: idxs[p])
    sign = 1
    perm = list(order)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return tuple(sorted(idxs)), sign


def _form_add(form: Form, idxs: tuple[int, ...], coeff: Poly) -> None:
    packed = _sorted_with_sign(idxs)
    if packed is None or coeff.is_zero():
        return
    key, sign = packed
    form[key] = form.get(key, Poly.zero()) + coeff * sign
    if form[key].is_zero():
        del form[key]


def boundary_formula_oracle(P: PoissonStructure, coeff: Poly, idxs: tuple[int, ...]) -> Form:
    """Boundary of coeff * dx_{i1} ^ ... ^ dx_{ik} straight from the formula:
    an alternating sum of brackets {coeff, x_i} on shorter wedges plus signed
    terms wedging in the differential of the coordinate brackets."""
    k = len(idxs)
    out: Form = {}
    variables = [Poly.variable(a) for a in range(3)]
    for pos in range(k):
        sign = (-1) ** pos  # (-1)^{i+1} with i = pos + 1
        rest = idxs[:pos] + idxs[pos + 1 :]
        _form_add(out, rest, P.bracket(coeff, variables[idxs[pos]]) * sign)
    for p1 in range(k):
        for p2 in range(p1 + 1, k):
            sign = (-1) ** (p1 + p2)  # (-1)^{i+j} with i=p1+1, j=p2+1
            g = P.bracket(variables[idxs[p1]], variables[idxs[p2]])
            rest = tuple(idxs[p] for p in range(k) if p not in (p1, p2))
            for axis in range(3):
                part = g.partial(axis)
                if not part.is_zero():
                    _form_add(out, (axis,) + rest, coeff * part * sign)
    return out


def form_from_chain(k: int, chain) -> Form:
    """Coordinate triples to exterior-algebra forms (dy^dz, dz^dx, dx^dy)."""
    out: Form = {}
    if k == 0:
        _form_add(out, (), chain)
    elif k == 1:
        for a in range(3):
            _form_add(out, (a,), chain[a])
    elif k == 2:
        _form_add(out, (1, 2), chain[0])
        _form_add(out, (2, 0), chain[1])
        _form_add(out, (0, 1), chain[2])
    else:
        _form_add(out, (0, 1, 2), chain)
    return out


def chain_from_form(k: int, form: Form):
    if k == 0:
        return form.get((), Poly.zero())
    if k == 1:
        return VecPoly(tuple(form.get((a,), Poly.zero()) for a in range(3)))
    if k == 2:
        return VecPoly(
            (
                form.get((1, 2), Poly.zero()),
                -form.get((0, 2), Poly.zero()),
                form.get((0, 1), Poly.zero()),
            )
        )
    return form.get((0, 1, 2), Poly.zero())


INDEX_SETS = {1: [(0,), (1,), (2,)], 2: [(1, 2), (2, 0), (0, 1)], 3: [(0, 1, 2)]}


class TestBoundaryAgainstFormulaOracle:
    def test_monomial_forms(self):
        for text, weights in [
            ("x^2+y^2+z^2", (1, 1, 1)),
            ("x^3+y^3+z^3", (1, 1, 1)),
            ("x^2+y^3+z^6", (3, 2, 1)),
        ]:
            P = structure(text, weights)
            for k in (1, 2, 3):
                for exps in itertools.product(range(3), repeat=3):
                    m = Poly.monomial(exps)
                    for idxs in INDEX_SETS[k]:
                        oracle = boundary_formula_oracle(P, m, idxs)
                        wedge: Form = {}
                        _form_add(wedge, idxs, m)
                        chain = chain_from_form(k, wedge)
                        assert form_from_chain(k - 1, P.boundary(k, chain)) == oracle, (
                            text,
                            k,
                            exps,
                            idxs,
                        )

    def test_matrices_entrywise(self, cubic):
        # same comparison as graded matrices, on a few degrees
        for k in (1, 2, 3):
            for i in range(0, 5):
                b = boundary_matrix(cubic, k, i)
                src = b.source
                for j in range(src.dim):
                    elem = basis_element(src, j)
                    oracle_form: Form = {}
                    for key, coeff in form_from_chain(k, elem).items():
                        for out_key, out_coeff in boundary_formula_oracle(
                            cubic, coeff, key
                        ).items():
                            _form_add(oracle_form, out_key, out_coeff)
                    image = chain_from_form(k - 1, oracle_form)
                    assert image == cubic.boundary(k, elem)
                    assert b.columns[j] == b.target.coords_of(image)


class TestDuality:
    def test_identity_holds_on_windows(self, catalog_structures):
        # one certificate for every degree; the matrices of a sample of
        # window degrees agree with it
        for P, _ in catalog_structures[:4]:
            assert duality_identity_holds(P) == (28, ""), str(P.phi)
            lo, hi = default_form_window(P)
            step = max(1, (hi - lo) // 8)
            for k in (1, 2, 3):
                for i in range(lo, hi + 1, step):
                    delta = operator_matrix(P, "delta%d" % (3 - k), i - P.weight_sum)
                    signed = [{r: (-1) ** k * c for r, c in col.items()} for col in delta.columns]
                    assert boundary_matrix(P, k, i).columns == signed, (str(P.phi), k, i)

    def test_homology_equals_shifted_cohomology(self, cubic, cubic_milnor):
        fw = default_form_window(cubic)
        s = cubic.weight_sum
        assert duality_identity_holds(cubic) == (28, "")
        for k in range(4):
            h = homology_dims(cubic, k, fw)
            co = brute_force_dims(cubic, 3 - k, (fw[0] - s, fw[1] - s))
            assert h.as_dict() == {i + s: n for i, n in co.dims}

    def test_equal_symbols_decide_the_bridge_without_a_matrix(self, monkeypatch):
        # a structure of its own, so no symbol or certificate of it is cached
        P = planted("x^3+y^3+z^3", (1, 1, 1))
        built = []
        matrix_of = operators.matrix_of

        def recording(*args):
            built.append(args)
            return matrix_of(*args)

        monkeypatch.setattr(operators, "matrix_of", recording)
        assert duality_identity_holds(P) == (28, "")
        assert built == []

    def test_a_perturbed_boundary_symbol_fails_at_the_first_differing_probe(self, monkeypatch):
        # one derivative term of boundary_2 changed: the matrices agree at
        # form degree 2, on the constants of Omega^2, and first differ at 3;
        # the certificate needs no degree and names the probe x*e_0
        P = planted("x^3+y^3+z^3", (1, 1, 1))
        symbol = operators.operator_symbol
        d_terms = symbol(P, "boundary2").terms
        (t, o0, o1, o2, c), *rest = d_terms[0][0]
        perturbed = Symbol(3, 3, ((((t, o0, o1, o2, c + 1), *rest), *d_terms[0][1:]), *d_terms[1:]))

        def perturbing(Q, name):
            return perturbed if (Q, name) == (P, "boundary2") else symbol(Q, name)

        for module in (operators, complexes):
            monkeypatch.setattr(module, "operator_symbol", perturbing)
        lo, hi = default_form_window(P)  # (0, 12)
        differs = [
            i for i in range(lo, hi + 1)
            if boundary_matrix(P, 2, i).columns != operator_matrix(P, "delta1", i - 3).columns
        ]
        assert differs[0] == 3 and boundary_matrix(P, 2, 2).shape == (9, 3)
        # 12 probes of boundary_1 pass, then e_0 and x*e_0 of boundary_2
        assert duality_identity_holds(P) == (14, "boundary_2 != (-1)^2 * delta1 at c=(x, 0, 0)")

    def test_negated_bracket_differential_terms_fail_at_k_2_on_a_probe(self):
        # the terms -f d{x_u, x_v} of boundary_2 negated: an error of order
        # 0, seen on the first probe of Omega^2, e_0
        def boundary(self, k, chain):
            out = PoissonStructure.boundary(self, k, chain)
            if k != 2:
                return out
            xs = [Poly.variable(a) for a in range(3)]
            for a, f in enumerate(chain):
                out += grad(self.bracket(xs[(a + 1) % 3], xs[(a + 2) % 3])) * (f * 2)
            return out

        P = planted("x^3+y^3+z^3", (1, 1, 1), boundary=boundary)
        assert duality_identity_holds(P) == (13, "boundary_2 != (-1)^2 * delta1 at c=(1, 0, 0)")

    def test_sphere_h3_pattern(self, sphere):
        M = check_isolated(sphere.phi, sphere.weights)
        dims = homology_dims(sphere, 3, (0, 11))
        assert dims.as_dict() == {3: 1, 5: 1, 7: 1, 9: 1, 11: 1}

    def test_cubic_h2_total_one_per_period(self, cubic, cubic_milnor):
        dims = homology_dims(cubic, 2, (0, 12))
        assert dims.as_dict() == {3: 1, 6: 1, 9: 1, 12: 1}

    def test_h2_vanishes_when_degree_differs(self):
        for text, weights in [("x^2+y^2+z^2", (1, 1, 1)), ("x^3+y^4+z^2", (4, 3, 6))]:
            P = structure(text, weights)
            assert homology_dims(P, 2, default_form_window(P)).as_dict() == {}


X, ZERO = Poly.variable(0), Poly.zero()

# One planted boundary per descent identity.  The first adds x^2*grad, of
# order 1, which does not commute with phi; the others add terms of order 0,
# which do, so the identity named is the first to fail.
DESCENT_FAULTS = [
    (
        "commutes_with_phi", boundary_plus(3, lambda f: grad(f) * X**2),
        "boundary_3(phi*c) != phi*boundary_3(c) at c=1",
    ),
    (
        "kills_the_wedges_of_functions", boundary_plus(1, lambda v: v[0] * X),
        "boundary_1(D_3 f) != 0 at f=1",
    ),
    (
        "intertwines_D2", boundary_plus(2, lambda v: v * X),
        "boundary_2(D_2 eta) != D_3(boundary_1 eta) at eta=(1, 0, 0)",
    ),
    (
        "intertwines_D1", boundary_plus(3, lambda f: VecPoly((X, ZERO, ZERO)) * f),
        "boundary_3(D_1 eta) != D_2(boundary_2 eta) at eta=(1, 0, 0)",
    ),
]


class TestSurfaceHomology:
    def test_totals(self, sphere, cubic, cubic_milnor):
        for P, expected in ((sphere, (1, 0, 1, 1)), (cubic, (8, 7, 8, 8))):
            fw = default_form_window(P)
            totals = tuple(surface_homology_dims(P, k, fw).total() for k in range(4))
            assert totals == expected

    def test_matches_descriptions(self, catalog_structures):
        for P, _ in catalog_structures[:2] + catalog_structures[3:]:
            M = check_isolated(P.phi, P.weights)
            fw = default_form_window(P)
            for k in range(4):
                predicted = predicted_dims(surface_homology_description(P, M, k), fw)
                computed = surface_homology_dims(P, k, fw)
                assert computed.matches(predicted), (str(P.phi), k)

    def test_h0_equals_jacobian_quotient_dims(self, cubic, cubic_milnor):
        fw = default_form_window(cubic)
        dims = surface_homology_dims(cubic, 0, fw)
        assert dims.as_dict() == {i: n for i, n in cubic_milnor.graded_dims}

    def test_h3_is_shifted_jacobian_quotient(self, cubic, cubic_milnor):
        fw = default_form_window(cubic)
        dims = surface_homology_dims(cubic, 3, fw)
        s = cubic.weight_sum
        assert dims.as_dict() == {i + s: n for i, n in cubic_milnor.graded_dims}

    def test_boundary_descends_to_quotient(self, catalog_structures):
        # one certificate for every degree: 70 probes commute with phi and
        # 70 intertwine the Koszul maps
        for P, _ in catalog_structures:
            assert projection_commutes(P) == (140, ""), str(P.phi)

    @pytest.mark.parametrize(
        "boundary,failure", [case[1:] for case in DESCENT_FAULTS],
        ids=[case[0] for case in DESCENT_FAULTS],
    )
    def test_a_planted_descent_fault_names_its_identity_and_probe(self, boundary, failure):
        P = planted("x^3+y^3+z^3", (1, 1, 1), boundary=boundary)
        cases, text = projection_commutes(P)
        assert text == failure
        assert cases < 140

    def test_a_planted_sign_error_fails_boundary_squared_on_a_probe(self, cubic, cubic_milnor):
        # the first component of boundary_2 negated; the check reads only P,
        # so the spaces are those of the true structure
        def boundary(self, k, chain):
            out = PoissonStructure.boundary(self, k, chain)
            return VecPoly((-out[0], out[1], out[2])) if k == 2 else out

        P = planted("x^3+y^3+z^3", (1, 1, 1), boundary=boundary)
        window = default_window(cubic)
        _, spaces = run_suite(cubic, "homology", window, cubic_milnor)
        results = homology_suite(P, cubic_milnor, window, *spaces.values())
        squared = [r for r in results if r.name == "boundary_squared_vanishes"]
        # the fifth of the 40 probes, x*e_2, is the first that fails
        assert [(r.passed, r.cases, r.details) for r in squared] == [
            (False, 5, "boundary_1 o boundary_2 on v=(0, x, 0)")
        ]

    def test_chain_space_models(self, cubic, cubic_milnor):
        def quotient_dim(k, i):
            # Omega^k = X^{3-k} modulo d(phi) ^ Omega^{k-1} + phi*Omega^k,
            # the stack of the Koszul row of A/<phi> at X^{4-k} one deg(phi) below
            j = i - cubic.weight_sum - cubic.degree
            relations = complexes.stack_rank(cubic, "koszul", "surface", 4 - k, j)
            return form_basis(cubic, k, i).dim - relations

        s = cubic.weight_sum
        milnor = {i: n for i, n in cubic_milnor.graded_dims}
        for i in range(0, 10):
            # top forms of the quotient algebra are the shifted Jacobian quotient
            assert quotient_dim(3, i) == milnor.get(i - s, 0)
            # functions on the surface: one ambient dimension per monomial,
            # minus the multiples of phi
            ambient = form_basis(cubic, 0, i).dim
            below = form_basis(cubic, 0, i - cubic.degree).dim
            assert quotient_dim(0, i) == ambient - below


class TestAmbientDescriptions:
    def test_predicted_matches_computed(self, catalog_structures):
        for P, _ in catalog_structures[:2] + catalog_structures[3:]:
            M = check_isolated(P.phi, P.weights)
            fw = default_form_window(P)
            for k in range(4):
                predicted = predicted_dims(ambient_homology_description(P, M, k), fw)
                computed = homology_dims(P, k, fw)
                assert computed.matches(predicted), (str(P.phi), k)
