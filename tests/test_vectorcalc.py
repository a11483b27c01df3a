from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poissonsing import (
    Poly,
    VecPoly,
    WeightSystem,
    cross,
    curl,
    divergence,
    dot,
    euler_field,
    grad,
    monomials_of_degree,
    parse_poly,
    weighted_degree,
)

from .test_poly import random_poly


def random_vec(rng: random.Random) -> VecPoly:
    return VecPoly((random_poly(rng, 2, 3), random_poly(rng, 2, 3), random_poly(rng, 2, 3)))


def random_homogeneous(rng: random.Random, w: WeightSystem) -> Poly:
    seed = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
    pool = monomials_of_degree(w.monomial_degree(seed), w)
    out = Poly.zero()
    for m in rng.sample(pool, min(3, len(pool))):
        out = out + Poly.monomial(m, rng.randint(1, 5))
    return out if not out.is_zero() else Poly.monomial(seed)


def test_gradient_example():
    assert grad(parse_poly("x^2+y^2+z^2")) == VecPoly(
        (parse_poly("2*x"), parse_poly("2*y"), parse_poly("2*z"))
    )


def test_curl_of_gradient_vanishes():
    rng = random.Random(1)
    for _ in range(200):
        assert curl(grad(random_poly(rng))).is_zero()


def test_divergence_of_gradient_cross_vanishes():
    rng = random.Random(2)
    for _ in range(200):
        f, g = random_poly(rng), random_poly(rng)
        assert divergence(cross(grad(f), grad(g))).is_zero()


def test_product_rules():
    rng = random.Random(3)
    for _ in range(200):
        f = random_poly(rng)
        u, v = random_vec(rng), random_vec(rng)
        assert curl(u * f) == cross(grad(f), u) + curl(u) * f
        assert divergence(u * f) == dot(grad(f), u) + divergence(u) * f
        assert divergence(cross(u, v)) == dot(curl(u), v) - dot(u, curl(v))


def test_euler_field_examples():
    for weights, div_value in [((1, 1, 1), 3), ((3, 2, 1), 6), ((15, 10, 6), 31)]:
        e = euler_field(WeightSystem(weights))
        assert e == VecPoly(
            (
                Poly.monomial((1, 0, 0), weights[0]),
                Poly.monomial((0, 1, 0), weights[1]),
                Poly.monomial((0, 0, 1), weights[2]),
            )
        )
        assert divergence(e) == Poly.constant(div_value)


def test_euler_formulas_on_homogeneous_inputs():
    rng = random.Random(4)
    for weights in [(1, 1, 1), (3, 2, 1), (4, 3, 6)]:
        w = WeightSystem(weights)
        e = euler_field(w)
        for _ in range(70):
            f = random_homogeneous(rng, w)
            deg = weighted_degree(f, w)
            assert dot(grad(f), e) == f * deg
            assert divergence(e * f) == f * (deg + w.weight_sum)


def test_cross_orientation_is_right_handed():
    ex = VecPoly((Poly.one(), Poly.zero(), Poly.zero()))
    ey = VecPoly((Poly.zero(), Poly.one(), Poly.zero()))
    ez = VecPoly((Poly.zero(), Poly.zero(), Poly.one()))
    assert cross(ex, ey) == ez
    assert cross(ey, ez) == ex
    assert cross(ez, ex) == ey


# ---------------------------------------------------------------------------
# VecPoly is an immutable value; its operations act componentwise
# ---------------------------------------------------------------------------


def test_vecpoly_is_a_hashable_immutable_value():
    u = VecPoly((parse_poly("x"), Poly.zero(), parse_poly("2*y*z")))
    same = VecPoly((parse_poly("x"), Poly.zero(), parse_poly("2*y*z")))
    assert u == same and hash(u) == hash(same) and not u != same
    assert u != VecPoly((parse_poly("x"), Poly.zero(), parse_poly("y*z")))
    assert {u: 1}[same] == 1 and len({u, same}) == 1
    assert u != tuple(u.components) and tuple(u.components) != u
    for attempt in (
        lambda: setattr(u, "components", (Poly.zero(),) * 3),
        lambda: setattr(u, "extra", 1),
        lambda: delattr(u, "components"),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert u == same
    assert str(u) == "(x, 0, 2*y*z)" and repr(u) == "VecPoly(x, 0, 2*y*z)"


def test_vecpoly_operations_act_componentwise():
    rng = random.Random(6)
    zero = VecPoly.zero()
    for _ in range(60):
        u, v, f = random_vec(rng), random_vec(rng), random_poly(rng)
        a, b = u.components, v.components
        assert (u + v).components == tuple(x + y for x, y in zip(a, b))
        assert (u - v).components == tuple(x - y for x, y in zip(a, b))
        assert (-u).components == tuple(-x for x in a)
        for c in (f, 3, Fraction(-1, 2), 0):
            assert (u * c).components == (c * u).components == tuple(x * c for x in a)
        assert dot(u, v) == sum((x * y for x, y in zip(a, b)), Poly.zero())
        assert cross(u, v) == VecPoly(
            (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        )
        assert divergence(u) == a[0].partial(0) + a[1].partial(1) + a[2].partial(2)
        assert u + zero == u and u - zero == u and (zero - u) == -u
        assert dot(u, zero).is_zero() and cross(u, zero).is_zero()
    assert zero.is_zero() and not VecPoly((Poly.zero(), Poly.one(), Poly.zero())).is_zero()


# ---------------------------------------------------------------------------
# The identity suite differentiates each probe once
# ---------------------------------------------------------------------------

# Calls of suites.grad, curl and divergence while identities_suite runs on
# x^2+y^2+z^2 over the window (0, 4): 10, 340 and 1,330 now, as the Euler
# families read the de Rham blocks; 45, 340 and 1,365 when they ran the 35
# window monomials through Poly grad and divergence; 845, 2,410 and 1,635
# when every probe pair recomputed its probes' derivatives.
DERIVATIVE_CALLS = {"grad": 10, "curl": 340, "divergence": 1330}


def test_identity_suite_differentiates_each_probe_once(monkeypatch, sphere):
    from poissonsing import suites

    calls = dict.fromkeys(DERIVATIVE_CALLS, 0)
    for name in DERIVATIVE_CALLS:
        def counted(arg, name=name, op=getattr(suites, name)):
            calls[name] += 1
            return op(arg)

        monkeypatch.setattr(suites, name, counted)
    results = suites.identities_suite(sphere, (0, 4))
    assert all(r.passed for r in results)
    assert all(calls[name] <= DERIVATIVE_CALLS[name] for name in calls), calls
