from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poissonsing import (
    NotHomogeneous,
    Poly,
    PolyParseError,
    WeightSystem,
    monomials_of_degree,
    parse_poly,
    weighted_degree,
)

from .conftest import graded_components

W111 = WeightSystem((1, 1, 1))


def random_poly(rng: random.Random, max_exp: int = 3, terms: int = 4) -> Poly:
    out = Poly.zero()
    for _ in range(terms):
        m = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        out = out + Poly.monomial(m, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return out


class TestParse:
    def test_fermat_cubic(self):
        p = parse_poly("x^3+y^3+z^3")
        assert len(p) == 3
        assert all(c == 1 for _, c in p)

    def test_zero(self):
        assert parse_poly("0").is_zero()

    def test_cancellation(self):
        assert parse_poly("2*x*y - x*y") == parse_poly("x*y")

    def test_rational_coefficients(self):
        p = parse_poly("3/4*x^2*y - 1/4*x^2*y")
        assert p == Poly.monomial((2, 1, 0), Fraction(1, 2))

    def test_integral_coefficients_are_ints(self):
        for p in (parse_poly("x^3+2*y"), parse_poly("3/3*x"), Poly.one()):
            assert all(type(c) is int for _, c in p)
        half = Poly.monomial((1, 0, 0), Fraction(1, 2))
        assert [type(c) for _, c in half] == [Fraction]

    def test_arithmetic_stores_integral_coefficients_as_ints(self):
        half = parse_poly("1/2*x")
        for p, expected in (
            (2 * half, "x"),
            (half * 2, "x"),
            (half * parse_poly("2*y"), "x*y"),
            (half + half, "x"),
            (parse_poly("3/2*x") - half, "x"),
            (parse_poly("1/2*x^2").partial(0), "x"),
            (parse_poly("1/2*x+y") ** 2, "1/4*x^2+x*y+y^2"),
        ):
            assert p == parse_poly(expected) and str(p) == expected
            assert [type(c) for _, c in p] == [type(c) for _, c in parse_poly(expected)], expected

    def test_leading_minus_and_whitespace(self):
        assert parse_poly(" - x + 2 * y ") == Poly.monomial((0, 1, 0), 2) - Poly.variable(0)

    def test_juxtaposed_coefficient(self):
        assert parse_poly("2x") == Poly.monomial((1, 0, 0), 2)

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x+w^2")
        assert err.value.position == 2

    def test_syntax_error_position(self):
        with pytest.raises(PolyParseError):
            parse_poly("x^")
        with pytest.raises(PolyParseError):
            parse_poly("x++y")
        with pytest.raises(PolyParseError):
            parse_poly("")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Poly.constant(3)),
            ("3x", Poly.monomial((1, 0, 0), 3)),
            ("3*x", Poly.monomial((1, 0, 0), 3)),
            ("1/2", Poly.constant(Fraction(1, 2))),
            ("-x", -Poly.variable(0)),
        ],
    )
    def test_accepted_term(self, text, expected):
        assert parse_poly(text) == expected

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("3*2", "expected a variable", 2),
            ("3*", "expected a variable", 2),
            ("2/0", "zero denominator", 3),
            ("*x", "expected a term", 0),
            ("(x)", "expected a term", 0),
            ("x y", "expected '+' or '-'", 2),
            ("x^", "expected an integer", 2),
            # a superscript two and an Arabic-Indic three: digits to
            # str.isdigit, but not the ASCII 0-9 of the grammar
            ("x^\u00b2+y^2+z^2", "expected an integer", 2),
            ("x^\u0663+y^3+z^3", "expected an integer", 2),
        ],
    )
    def test_rejected_term_names_error_and_position(self, text, message, position):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert str(err.value) == "%s (at position %d)" % (message, position)
        assert err.value.position == position

    def test_parse_print_roundtrip(self):
        rng = random.Random(21)
        for _ in range(200):
            p = random_poly(rng)
            text = str(p)
            assert parse_poly(text) == p
            assert str(parse_poly(text)) == text


class TestWeightedDegree:
    def test_weighted_example(self):
        f = parse_poly("x^2+y^3+z^5")
        assert weighted_degree(f, WeightSystem((15, 10, 6))) == 30

    def test_mixed_degrees_reported(self):
        with pytest.raises(NotHomogeneous) as err:
            weighted_degree(parse_poly("x+y^2"), W111)
        assert err.value.degrees == {1, 2}

    def test_zero_is_minus_infinity(self):
        assert weighted_degree(Poly.zero(), W111) is None
        assert weighted_degree(Poly.zero(), WeightSystem((3, 2, 1))) is None

    def test_degree_additive_on_products(self):
        rng = random.Random(5)
        w = WeightSystem((3, 2, 1))
        for _ in range(100):
            d1, d2 = rng.randint(0, 6), rng.randint(0, 6)
            m1 = monomials_of_degree(d1, w)
            m2 = monomials_of_degree(d2, w)
            if not m1 or not m2:
                continue
            f = Poly.monomial(rng.choice(m1), 2)
            g = Poly.monomial(rng.choice(m2), 3)
            assert weighted_degree(f * g, w) == d1 + d2


class TestMonomialEnumeration:
    def test_unit_weights_degree_two(self):
        monos = [Poly.monomial(m) for m in monomials_of_degree(2, W111)]
        assert [str(m) for m in monos] == ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]

    def test_empty_when_unreachable(self):
        assert monomials_of_degree(1, WeightSystem((2, 3, 5))) == []
        assert monomials_of_degree(-2, W111) == []

    def test_weighted_enumeration_against_brute_force(self):
        # independent oracle: exhaustive scan of 3a+2b+c = 6
        w = WeightSystem((3, 2, 1))
        expected = set()
        for a in range(3):
            for b in range(4):
                for c in range(7):
                    if 3 * a + 2 * b + c == 6:
                        expected.add((a, b, c))
        got = monomials_of_degree(6, w)
        assert set(got) == expected
        assert len(got) == 7
        assert got == sorted(got, reverse=True)

    def test_unit_weight_counts(self):
        for i in range(12):
            assert len(monomials_of_degree(i, W111)) == (i + 1) * (i + 2) // 2


class TestGradedComponents:
    def test_split(self):
        comps = graded_components(parse_poly("x+y^2"), W111)
        assert comps == {1: parse_poly("x"), 2: parse_poly("y^2")}

    def test_homogeneous_single_entry(self):
        comps = graded_components(parse_poly("x^2*y+z^3"), W111)
        assert list(comps) == [3]

    def test_example_with_two_levels(self):
        comps = graded_components(parse_poly("x^2*y + z^3 + x"), W111)
        assert comps == {1: parse_poly("x"), 3: parse_poly("x^2*y+z^3")}

    def test_components_sum_to_input_and_respect_addition(self):
        rng = random.Random(11)
        w = WeightSystem((2, 1, 3))
        for _ in range(100):
            f, g = random_poly(rng), random_poly(rng)
            cf, cg, cs = (graded_components(p, w) for p in (f, g, f + g))
            total = Poly.zero()
            for part in cf.values():
                total = total + part
            assert total == f
            for d in set(cf) | set(cg):
                assert cs.get(d, Poly.zero()) == cf.get(d, Poly.zero()) + cg.get(d, Poly.zero())


class TestRingAxioms:
    def test_randomized_ring_axioms(self):
        rng = random.Random(3)
        for _ in range(150):
            f, g, h = (random_poly(rng, 2, 3) for _ in range(3))
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f - f == Poly.zero()

    def test_powers(self):
        f = parse_poly("x+y")
        assert f**3 == f * f * f
        assert f**0 == Poly.one()

    def test_no_stored_zero_coefficients(self):
        p = parse_poly("x") - parse_poly("x") + parse_poly("y")
        assert set(p.terms) == {(0, 1, 0)}


class TestWeightSystem:
    def test_rejects_common_divisor(self):
        with pytest.raises(ValueError):
            WeightSystem((2, 4, 6))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            WeightSystem((0, 1, 1))

    def test_from_string(self):
        assert WeightSystem.from_string("15, 10, 6").weights == (15, 10, 6)
        assert WeightSystem.from_string("3,2,1").weight_sum == 6


# ---------------------------------------------------------------------------
# The kernel's fast paths agree with term-by-term arithmetic
# ---------------------------------------------------------------------------


def reference_product(f: Poly, g: Poly) -> dict:
    out: dict = {}
    for m, a in f.terms.items():
        for n, b in g.terms.items():
            k = (m[0] + n[0], m[1] + n[1], m[2] + n[2])
            out[k] = out.get(k, 0) + a * b
    return {k: c for k, c in out.items() if c}


def reference_sum(f: Poly, g: Poly, sign: int = 1) -> dict:
    out = dict(f.terms)
    for m, c in g.terms.items():
        out[m] = out.get(m, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def reference_partial(f: Poly, a: int) -> dict:
    return {m[:a] + (m[a] - 1,) + m[a + 1:]: c * m[a] for m, c in f.terms.items() if m[a]}


# zero, single-term and multi-term operands, with int and Fraction coefficients
OPERANDS = {
    "zero": Poly.zero(),
    "one": Poly.one(),
    "constant": Poly.constant(-3),
    "fraction_constant": Poly.constant(Fraction(2, 3)),
    "monomial": Poly.monomial((2, 0, 1)),
    "scaled_monomial": Poly.monomial((0, 3, 1), -2),
    "fraction_monomial": Poly.monomial((1, 1, 0), Fraction(-1, 2)),
    "multi": parse_poly("x^2-2*x*y+3*z^2+1"),
    "fraction_multi": parse_poly("1/2*x*y+y^2-3/4*z"),
    "cancelling": parse_poly("x^2+x*y-y^2"),
}


def integral(p: Poly) -> bool:
    return all(type(c) is int for _, c in p)


class TestKernelFastPaths:
    @pytest.mark.parametrize("a", OPERANDS)
    def test_ring_operations_match_the_term_by_term_reference(self, a):
        f = OPERANDS[a]
        for b, g in OPERANDS.items():
            for op, result, expected in (
                ("*", f * g, reference_product(f, g)),
                ("+", f + g, reference_sum(f, g)),
                ("-", f - g, reference_sum(f, g, -1)),
            ):
                case = "%s %s %s" % (a, op, b)
                assert result.terms == expected, case
                assert all(c for _, c in result), "%s stores a zero coefficient" % case
                if integral(f) and integral(g):
                    assert integral(result), case

    @pytest.mark.parametrize("name", OPERANDS)
    def test_partials_and_scalars_match_the_reference(self, name):
        f = OPERANDS[name]
        for a in range(3):
            assert f.partial(a).terms == reference_partial(f, a)
            if integral(f):
                assert integral(f.partial(a))
        for c in (0, 1, -2, Fraction(3, 2)):
            expected = {m: v * c for m, v in f.terms.items() if v * c}
            assert (f * c).terms == expected and (c * f).terms == expected
        if integral(f):
            assert integral(f * 5) and integral(5 * f)

    def test_cancelled_terms_are_not_stored(self):
        # (x+y)(x-y) = x^2-y^2: the cross terms cancel and are not kept
        p = parse_poly("x+y") * parse_poly("x-y")
        assert p.terms == {(2, 0, 0): 1, (0, 2, 0): -1}

    def test_operands_are_left_unchanged(self):
        before = {name: dict(p.terms) for name, p in OPERANDS.items()}
        for f in OPERANDS.values():
            for g in OPERANDS.values():
                f * g, f + g, f - g
            f.partial(0), -f
        assert {name: dict(p.terms) for name, p in OPERANDS.items()} == before
