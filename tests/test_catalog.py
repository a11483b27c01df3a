"""The classification behind the paper's hypotheses, as an acceptance catalog.

Whole named families of weight-homogeneous surface singularities meet the
hypotheses (Arnold's normal forms), and the sign of N = deg(phi) - |w|
splits them: N = -1 for the simple ones A3, D4, E6, E7, E8, N = 0 for the
simple elliptic P8, X9, J10 (so H^1 of A is non-zero) and N = +1 for the
fourteen exceptional unimodal ones.  The oracles need no rank:

  * the gate's Milnor number is the value in Arnold's tables;
  * the modality (0 for the simple ones, 1 for the others) is the number of
    basis elements u_j of degree at least deg(phi);
  * only u_0 of P8, X9 and J10 has degree deg(phi) - |w|, so the surface
    H^1 and H^2 are one-dimensional for those three and vanish for the
    others.

analyze must exit 0 on every form on its default windows, and the
degenerate members of the two elliptic pencils must be rejected (exit 3).
On every accepted form the boundary, defined by its own formula, has the
symbol of the signed coboundary, so the duality certificate holds.
"""

from __future__ import annotations

import json

import pytest

from poissonsing import check_isolated, duality_identity_holds
from poissonsing.cli import main
from poissonsing.operators import operator_symbol

from .conftest import structure

# name, phi, weights, Arnold's Milnor number
SIMPLE = [
    ("A3", "x^4+y^2+z^2", (1, 2, 2), 3),
    ("D4", "x^2*y+y^3+z^2", (2, 2, 3), 4),
    ("E6", "x^3+y^4+z^2", (4, 3, 6), 6),
    ("E7", "x^3+x*y^3+z^2", (6, 4, 9), 7),
    ("E8", "x^3+y^5+z^2", (10, 6, 15), 8),
]
ELLIPTIC = [
    ("P8", "x^3+y^3+z^3", (1, 1, 1), 8),
    ("X9", "x^4+y^4+z^2", (1, 1, 2), 9),
    ("J10", "x^3+y^6+z^2", (2, 1, 3), 10),
]
EXCEPTIONAL = [
    ("E12", "x^3+y^7+z^2", (14, 6, 21), 12),
    ("E13", "x^3+x*y^5+z^2", (10, 4, 15), 13),
    ("E14", "x^3+y^8+z^2", (8, 3, 12), 14),
    ("Z11", "x^3*y+y^5+z^2", (8, 6, 15), 11),
    ("Z12", "x^3*y+x*y^4+z^2", (6, 4, 11), 12),
    ("Z13", "x^3*y+y^6+z^2", (5, 3, 9), 13),
    ("Q10", "x^3+y^4+y*z^2", (8, 6, 9), 10),
    ("Q11", "x^3+y^2*z+x*z^3", (6, 7, 4), 11),
    ("Q12", "x^3+y^5+y*z^2", (5, 3, 6), 12),
    ("W12", "x^4+y^5+z^2", (5, 4, 10), 12),
    ("W13", "x^4+x*y^4+z^2", (4, 3, 8), 13),
    ("S11", "x^4+y^2*z+x*z^2", (4, 5, 6), 11),
    ("S12", "x^2*y+y^2*z+x*z^3", (4, 5, 3), 12),
    ("U12", "x^3+y^3+z^4", (4, 4, 3), 12),
]
# (family, N, modality)
FAMILIES = [(SIMPLE, -1, 0), (ELLIPTIC, 0, 1), (EXCEPTIONAL, 1, 1)]
NAMED = [(*form, N, modality) for forms, N, modality in FAMILIES for form in forms]


def a_n(n: int) -> tuple:
    """A_n: x^(n+1)+y^2+z^2, with the primitive weights of degree lcm(n+1, 2)."""
    d = 2 * (n + 1) // (2 if n % 2 else 1)
    return ("A%d" % n, "x^%d+y^2+z^2" % (n + 1), (d // (n + 1), d // 2, d // 2), n)


def d_n(n: int) -> tuple:
    """D_n: x^2*y+y^(n-1)+z^2, of degree 2(n-1)."""
    return ("D%d" % n, "x^2*y+y^%d+z^2" % (n - 1), (n - 2, 2, n - 1), n)


# the small members of the simple families beyond A3 and D4 above
SMALL_ADE = [a_n(n) for n in (1, 2, 4, 5, 6)] + [d_n(n) for n in (5, 6, 7)]
ACCEPTED = [(*form, modality) for *form, _, modality in NAMED] + [(*f, 0) for f in SMALL_ADE]

DEGENERATE = [
    ("x^3+y^3+z^3-3*x*y*z", (1, 1, 1)),
    ("x^4+y^4+z^2+2*x^2*y^2", (1, 1, 2)),
    ("x^4+y^4+z^2-2*x^2*y^2", (1, 1, 2)),
]


def _ids(cases) -> list[str]:
    return [case[0] for case in cases]


@pytest.mark.parametrize("name,phi,weights,mu,modality", ACCEPTED, ids=_ids(ACCEPTED))
def test_gate_gives_arnolds_milnor_number_and_modality(name, phi, weights, mu, modality):
    P = structure(phi, weights)
    M = check_isolated(P.phi, P.weights)
    assert M.mu == mu
    assert sum(1 for _, degree in M.basis if degree >= P.degree) == modality


@pytest.mark.parametrize("name,phi,weights,mu,N,modality", NAMED, ids=_ids(NAMED))
def test_sign_of_N_and_the_basis_at_degree_d_minus_w(name, phi, weights, mu, N, modality):
    P = structure(phi, weights)
    M = check_isolated(P.phi, P.weights)
    assert P.coboundary_degree == N
    at_n = [j for j, (_, degree) in enumerate(M.basis) if degree == N]
    assert at_n == ([0] if N == 0 else [])


@pytest.mark.parametrize("name,phi,weights,mu,modality", ACCEPTED, ids=_ids(ACCEPTED))
def test_analyze_exits_zero_on_the_default_windows(capsys, name, phi, weights, mu, modality):
    P = structure(phi, weights)
    w = ",".join(map(str, weights))
    code = main(["analyze", "--phi", phi, "--weights", w, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["milnor"]["mu"] == mu
    elliptic = P.coboundary_degree == 0
    for k in (1, 2):
        computed = report["cohomology"]["surface"]["H%d" % k]["computed"]
        assert sum(n for _, n in computed) == (1 if elliptic else 0), k


@pytest.mark.parametrize("name,phi,weights,mu,modality", ACCEPTED, ids=_ids(ACCEPTED))
def test_the_boundary_has_the_symbol_of_the_signed_coboundary(name, phi, weights, mu, modality):
    P = structure(phi, weights)
    for k in (1, 2, 3):
        signed = operator_symbol(P, "delta%d" % (3 - k)).scaled((-1) ** k)
        assert operator_symbol(P, "boundary%d" % k) == signed, k
    assert duality_identity_holds(P) == (28, "")


@pytest.mark.parametrize("phi,weights", DEGENERATE, ids=[phi for phi, _ in DEGENERATE])
def test_degenerate_pencil_members_are_rejected(capsys, phi, weights):
    w = ",".join(map(str, weights))
    assert main(["analyze", "--phi", phi, "--weights", w, "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["gate"]["accepted"] is False
