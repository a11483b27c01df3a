"""The identity families are certificates on their probe sets: a planted
fault in an operator fails its family, and the details name the first
failing probe."""

from __future__ import annotations

from poissonsing import suites
from poissonsing.poly import Poly, parse_poly
from poissonsing.vectorcalc import VecPoly, cross, curl, divergence, dot, grad

from .conftest import planted


def failures(P, window=(0, 4)) -> dict[str, str]:
    return {r.name: r.details for r in suites.identities_suite(P, window) if not r.passed}


def test_sign_flipped_curl_component(monkeypatch, sphere):
    def flipped(v):
        c = curl(v)
        return VecPoly((-c[0], c[1], c[2]))

    monkeypatch.setattr(suites, "curl", flipped)
    assert failures(sphere) == {
        "curl_of_scalar_product": "f=y, g=(0, 0, 1)",
        "div_of_cross_product": "f=(1, 0, 0), g=(0, 0, y)",
    }


def test_sign_flipped_cross(monkeypatch, sphere):
    monkeypatch.setattr(suites, "cross", lambda u, v: -cross(u, v))
    assert failures(sphere) == {
        "curl_of_scalar_product": "f=x, g=(0, 1, 0)",
        "div_of_cross_product": "f=(1, 0, 0), g=(0, 0, y)",
    }


def test_delta1_with_flipped_divergence_term():
    def flipped(self, v):
        return -grad(dot(v, self.nabla_phi)) - self.nabla_phi * divergence(v)

    # the delta families are certified once per structure, so the fault is
    # planted in a structure of its own, not in the class
    P = planted("x^2+y^2+z^2", (1, 1, 1), delta1=flipped)
    # delta o delta = 0 cannot see this sign: grad(phi) . curl(h * grad(phi)) = 0
    assert failures(P) == {"casimir_multiplication_commutes": "k=1, v=(1, 0, 0)"}


def grad_without_exponent_factor(f: Poly) -> VecPoly:
    """d(x^n)/dx taken as x^(n-1): right on every monomial of degree <= 1."""
    def partial(a):
        return Poly({m[:a] + (m[a] - 1,) + m[a + 1:]: c for m, c in f if m[a]})

    return VecPoly((partial(0), partial(1), partial(2)))


def test_gradient_without_exponent_factor(monkeypatch, sphere):
    # only the degree-2 probes see it, which is why the probe box goes to
    # degree 2; the Euler families read the de Rham blocks, not suites.grad
    monkeypatch.setattr(suites, "grad", grad_without_exponent_factor)
    assert failures(sphere) == {
        "curl_of_scalar_product": "f=x^2, g=(0, 1, 0)",
        "div_of_scalar_product": "f=x^2, g=(1, 0, 0)",
    }


def test_de_rham_blocks_without_exponent_factor(monkeypatch, sphere):
    # the same fault in the blocks the engine ranks: every entry of a
    # gradient or divergence column taken as 1, as if d(x^n)/dx were x^(n-1)
    columns = suites.operator_columns

    def without_exponent_factor(P, name, i, skip=0):
        out = columns(P, name, i, skip)
        if name in ("de_rham3", "de_rham1"):
            out = [{k: 1 for k in column} for column in out]
        return out

    monkeypatch.setattr(suites, "operator_columns", without_exponent_factor)
    assert failures(sphere) == {
        "euler_degree_formula": "f=x^2",
        "euler_divergence_formula": "f=x",
    }


def test_probe_sets_are_the_monomials_up_to_degree_two():
    monomials = {parse_poly(t) for t in "1 x y z x^2 y^2 z^2 x*y x*z y*z".split()}
    assert len(suites.PROBES) == 10 and set(suites.PROBES) == monomials
    entries = [[(j, f) for j, f in enumerate(v) if f] for v in suites.VECTOR_PROBES]
    assert all(len(e) == 1 for e in entries)
    assert len(entries) == 30 and {e[0] for e in entries} == {
        (j, f) for j in range(3) for f in monomials
    }
