"""Structure operators run on their symbols.

linalg.apply_symbol evaluates an operator of order at most one on a cochain's
term maps by the exponent arithmetic of matrix_of.  Here it is checked
against the operator itself (operators.named_operator, in Poly arithmetic)
on every probe and on cochains of higher degree, and the certificates that
run on it (complexes.certificate) against a copy of their Poly evaluation,
on the catalog and under planted faults.
"""

from __future__ import annotations

import math

import pytest

from poissonsing import PoissonStructure, Poly, VecPoly, complexes, operators, parse_poly
from poissonsing.complexes import PROBES, VECTOR_PROBES, first_failure
from poissonsing.linalg import apply_symbol, symbol_of, term_maps
from poissonsing.operators import named_operator, operator_symbol
from poissonsing.vectorcalc import cross, curl, divergence, dot, grad

from .conftest import CATALOG, boundary_plus, planted, structure

# x^3+y^3+z^3 after x -> x+y+z: the dense twin of the cubic
DENSE_CUBIC = "x^3+2*y^3+2*z^3+3*x^2*y+3*x^2*z+3*x*y^2+3*y^2*z+3*x*z^2+3*y*z^2+6*x*y*z"
STRUCTURES = [
    *((text, weights) for text, weights, _ in CATALOG),
    ("1/2*x^3+1/2*y^3+1/2*z^3", (1, 1, 1)),
    (DENSE_CUBIC, (1, 1, 1)),
]
FAMILIES = (
    "coboundary_squared_vanishes",
    "casimir_multiplication_commutes",
    "boundary_squared_vanishes",
    "koszul_squared_vanishes",
    "de_rham_squared_vanishes",
    "quotient_boundary_well_defined",
    "boundary_equals_signed_coboundary",
)

# cochains of degree 4 and more, with coefficients that do not all agree
SCALARS = (parse_poly("x^4*y-3*y^2*z^3+7*z^5"), parse_poly("2*x^2*y^2*z^2-x*y^4"))
VECTORS = (
    VecPoly((parse_poly("x^3*y+z^4"), parse_poly("-2*x^2*z^2"), parse_poly("y^5-x*y*z^3"))),
    VecPoly((Poly.zero(), parse_poly("5*x^4-y^2*z^2"), parse_poly("x*y^3"))),
)


def scale(P: PoissonStructure) -> int:
    """c with P.integral the structure of c*phi."""
    return math.lcm(*(getattr(v, "denominator", 1) for v in P.phi.terms.values()))


def inputs(components: int):
    return (*PROBES, *SCALARS) if components == 1 else (*VECTOR_PROBES, *VECTORS)


@pytest.mark.parametrize("text,weights", STRUCTURES)
def test_apply_symbol_is_the_operator(text, weights):
    # the symbol is P.integral's, so it gives c times P's operator; de Rham
    # does not depend on phi
    P = structure(text, weights)
    c = scale(P)
    named = [(n, operator_symbol(P, n), named_operator(P, n), 1 if n.startswith("de_rham") else c)
             for n in operators.PIECES if not n.startswith("phi")]
    named += [("phi%d" % p, operator_symbol(P, "phi%d" % p), named_operator(P, "phi"), c)
              for p in (0, 1)]
    assert len(named) == 14
    for name, symbol, op, factor in named:
        for cochain in inputs(symbol.source_components):
            out = apply_symbol(symbol, term_maps(cochain))
            assert out == term_maps(op(cochain) * factor), (name, str(cochain))
            assert all(type(v) is int for part in out for v in part.values()), name


def test_every_structure_shares_the_de_rham_symbols(cubic):
    # de Rham reads no phi: its symbols are keyed on no structure, so each is
    # extracted once per process
    other = structure("x^2+y^3+z^5", (15, 10, 6))
    for k in (1, 2, 3):
        assert operator_symbol(cubic, "de_rham%d" % k) is operator_symbol(other, "de_rham%d" % k)


def test_apply_symbol_refuses_a_cochain_of_another_arity(cubic):
    with pytest.raises(ValueError, match="shorter"):
        apply_symbol(operator_symbol(cubic, "delta1"), term_maps(Poly.one()))


def poly_certificate(P, family):
    """complexes.certificate as it was when it evaluated the operators in Poly
    arithmetic on P itself (duality then already compared symbols)."""
    probes = [(0, "f", f) for f in PROBES] + [(1, "v", v) for v in VECTOR_PROBES]

    def delta_squared(case):
        k, name, c = case
        if P.delta(k + 1, P.delta(k, c)).is_zero():
            return None
        return "delta%d o delta%d on %s=%s" % (k + 1, k, name, c)

    def casimir_commutes(case):
        k, name, c = case
        for j in (0,) if k == 0 else (1, 2):
            if P.delta(j, c * P.phi) != P.delta(j, c) * P.phi:
                return "k=%d, %s=%s" % (j, name, c)
        return None

    def koszul(k, c):
        return named_operator(P, "koszul%d" % k)(c)

    def squared(prefix, Q):
        op = {n: named_operator(Q, "%s%d" % (prefix, n)) for n in (1, 2, 3)}

        def vanishes(case):
            k, c = case
            if op[k](op[k + 1](c)).is_zero():
                return None
            return "%s_%d o %s_%d on %s=%s" % (prefix, k, prefix, k + 1, "v" if k == 1 else "f", c)

        return vanishes

    def descends(case):
        identity, k, c = case
        if identity == "phi":
            ok = P.boundary(k, c * P.phi) == P.boundary(k, c) * P.phi
            return None if ok else "boundary_%d(phi*c) != phi*boundary_%d(c) at c=%s" % (k, k, c)
        lhs = P.boundary(k, koszul(4 - k, c))
        if k == 1:
            return None if lhs.is_zero() else "boundary_1(D_3 f) != 0 at f=%s" % c
        if lhs != koszul(5 - k, P.boundary(k - 1, c)):
            return "boundary_%d(D_%d eta) != D_%d(boundary_%d eta) at eta=%s" % (
                k, 4 - k, 5 - k, k - 1, c)
        return None

    omega = (PROBES, VECTOR_PROBES, VECTOR_PROBES, PROBES)

    def dual(case):
        k, s, i = case
        boundary = operator_symbol(P, "boundary%d" % k)
        signed = operator_symbol(P, "delta%d" % (3 - k)).scaled((-1) ** k)
        if boundary.terms[s][i - 1] == signed.terms[s][i - 1]:
            return None
        c = omega[k][boundary.source_components * i + s]
        return "boundary_%d != (-1)^%d * delta%d at c=%s" % (k, k, 3 - k, c)

    descent = [("phi", k, c) for k in (1, 2, 3) for c in omega[k]]
    descent += [("D", k, c) for k in (1, 2, 3) for c in omega[k - 1]]
    duality = ((k, s, i) for k in (1, 2, 3)
               for s in range(operator_symbol(P, "boundary%d" % k).source_components)
               for i in range(4))
    chained = [(1, v) for v in VECTOR_PROBES] + [(2, f) for f in PROBES]
    cases, check = {
        "coboundary_squared_vanishes": (probes, delta_squared),
        "casimir_multiplication_commutes": (probes, casimir_commutes),
        "boundary_squared_vanishes": (chained, squared("boundary", P)),
        "koszul_squared_vanishes": (chained, squared("koszul", P)),
        "de_rham_squared_vanishes": (chained, squared("de_rham", None)),
        "quotient_boundary_well_defined": (descent, descends),
        "boundary_equals_signed_coboundary": (duality, dual),
    }[family]
    return first_failure(cases, check)


@pytest.mark.parametrize("text,weights", STRUCTURES)
def test_certificates_on_symbols_agree_with_poly_evaluation(text, weights):
    P = structure(text, weights)
    for family in FAMILIES:
        assert complexes.certificate(P, family) == poly_certificate(P, family), family


def flipped_divergence_term(self, v):
    return -grad(dot(v, self.nabla_phi)) - self.nabla_phi * divergence(v)


def negated_bracket_terms(self, k, chain):
    # boundary_2 with its terms -f d{x_u, x_v} negated
    out = PoissonStructure.boundary(self, k, chain)
    if k == 2:
        xs = [Poly.variable(a) for a in range(3)]
        for a, f in enumerate(chain):
            out += grad(self.bracket(xs[(a + 1) % 3], xs[(a + 2) % 3])) * (f * 2)
    return out


def doubled_boundary_2(self, k, chain):
    # 2 * boundary_2: boundary o boundary still vanishes, descent does not
    out = PoissonStructure.boundary(self, k, chain)
    return out * 2 if k == 2 else out


def first_component_flipped(operation):
    def flipped(*args):
        u = operation(*args)
        return VecPoly((-u[0], u[1], u[2]))

    return flipped


# A planted fault: phi, the replaced methods, the module function of
# operators replaced (the Koszul and de Rham maps are no methods), and the
# families it fails.
FAULTS = [
    ("flipped_divergence_term", "x^2+y^2+z^2", {"delta1": flipped_divergence_term}, None,
     {"casimir_multiplication_commutes", "boundary_equals_signed_coboundary"}),
    ("negated_bracket_terms", "x^3+y^3+z^3", {"boundary": negated_bracket_terms}, None,
     {"boundary_squared_vanishes", "quotient_boundary_well_defined",
      "boundary_equals_signed_coboundary"}),
    ("koszul2_sign_flip", "x^3+y^3+z^3", {}, ("cross", first_component_flipped(cross)),
     {"koszul_squared_vanishes", "quotient_boundary_well_defined"}),
    ("flipped_curl_component", "x^3+y^3+z^3", {}, ("curl", first_component_flipped(curl)),
     {"de_rham_squared_vanishes"}),
    ("boundary_2_breaks_descent", "x^3+y^3+z^3", {"boundary": doubled_boundary_2}, None,
     {"quotient_boundary_well_defined", "boundary_equals_signed_coboundary"}),
]


@pytest.mark.parametrize(
    "text,methods,replaced,failing", [case[1:] for case in FAULTS], ids=[c[0] for c in FAULTS]
)
def test_a_planted_fault_fails_the_same_case_on_symbols(monkeypatch, text, methods, replaced,
                                                        failing):
    P = planted(text, (1, 1, 1), **methods)
    if replaced:
        # the de Rham symbols are keyed on no structure, so every symbol is
        # extracted afresh while the module function is replaced
        monkeypatch.setattr(operators, *replaced)
        monkeypatch.setattr(
            operators, "_symbol", lambda Q, name, n: symbol_of(named_operator(Q, name), n)
        )
    found = {family: complexes.certificate(P, family) for family in FAMILIES}
    assert {family for family, (_, failure) in found.items() if failure} == failing
    assert found == {family: poly_certificate(P, family) for family in FAMILIES}


def test_an_operator_of_order_two_stops_at_symbol_extraction():
    # as the engine's matrices do: no certificate evaluates it
    P = planted("x^3+y^3+z^3", (1, 1, 1), boundary=boundary_plus(3, lambda f: grad(f.partial(0))))
    with pytest.raises(ValueError, match="not of order at most one"):
        complexes.certificate(P, "quotient_boundary_well_defined")
