"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Everything is exact (integer dimension equalities over the rationals); there
are no numeric tolerances anywhere.
"""

from __future__ import annotations

import time


from poissonsing import (
    NotIsolated,
    VecPoly,
    WeightSystem,
    ambient_homology_description,
    brute_force_dims,
    check_isolated,
    closed_form,
    default_form_window,
    default_window,
    dot,
    homology_dims,
    monomials_of_degree,
    parse_poly,
    predicted_dims,
    surface_brute_force_dims,
    surface_closed_form,
    surface_homology_description,
    surface_homology_dims,
)
from poissonsing.homology import duality_identity_holds
from poissonsing.linalg import Echelon
from poissonsing.operators import operator_matrix
from poissonsing.suites import identities_suite, koszul_suite, run_suite

from .conftest import CATALOG, structure


def _report(criterion: str, passed: bool, elapsed: float, detail: str = "") -> None:
    line = "ACCEPTANCE %-38s %s (%.1fs)" % (
        criterion, "PASS" if passed else "FAIL", elapsed
    )
    if detail:
        line += " -- " + detail
    print(line)


def test_criterion_1_catalog_gate_and_milnor_numbers():
    t0 = time.time()
    failures = []
    for text, weights, mu in CATALOG:
        P = structure(text, weights)
        data = check_isolated(P.phi, P.weights)
        if data.mu != mu:
            failures.append("%s: mu %d != %d" % (text, data.mu, mu))
    for n in (2, 3, 4):
        data = check_isolated(parse_poly("x^%d+y^%d+z^%d" % (n, n, n)), WeightSystem((1, 1, 1)))
        if data.mu != (n - 1) ** 3:
            failures.append("fermat %d" % n)
    elapsed = time.time() - t0
    _report("1 catalog gate + milnor numbers", not failures, elapsed, "; ".join(failures))
    assert not failures
    assert elapsed < 60


def test_criterion_2_gate_rejections():
    t0 = time.time()
    ok = True
    detail = ""
    try:
        check_isolated(parse_poly("x*y*z"), WeightSystem((1, 1, 1)))
        ok, detail = False, "x*y*z accepted"
    except NotIsolated as exc:
        ok = exc.witness_degree is not None
    if ok:
        try:
            check_isolated(parse_poly("x^2+y^2"), WeightSystem((1, 1, 1)))
            ok, detail = False, "x^2+y^2 accepted"
        except NotIsolated as exc:
            ok = exc.witness_degree is not None
    elapsed = time.time() - t0
    _report("2 gate rejections with witness", ok, elapsed, detail)
    assert ok
    assert elapsed < 1


def test_criterion_3_ambient_cohomology_matches():
    t0 = time.time()
    failures = []
    for text, weights, _ in CATALOG:
        P = structure(text, weights)
        M = check_isolated(P.phi, P.weights)
        window = default_window(P)
        for k in range(4):
            predicted = predicted_dims(closed_form(P, M, k), window)
            computed = brute_force_dims(P, k, window)
            if not computed.matches(predicted):
                failures.append("%s H%d" % (text, k))
    elapsed = time.time() - t0
    _report("3 ambient cohomology match", not failures, elapsed, "; ".join(failures))
    assert not failures
    assert elapsed < 600


def test_criterion_4_surface_cohomology_matches():
    t0 = time.time()
    failures = []
    totals = {}
    for text, weights, _ in CATALOG:
        P = structure(text, weights)
        M = check_isolated(P.phi, P.weights)
        window = default_window(P)
        per_k = []
        for k in range(4):
            predicted = predicted_dims(surface_closed_form(P, M, k), window)
            computed = surface_brute_force_dims(P, k, window)
            if not computed.matches(predicted):
                failures.append("%s H%d" % (text, k))
            per_k.append(computed.total())
        totals[text] = (per_k[1], per_k[2])
    expected_totals = {
        "x^3+y^3+z^3": (1, 1),
        "x^4+y^4+z^4": (3, 3),
        "x^2+y^3+z^6": (1, 1),
        "x^2+y^2+z^2": (0, 0),
        "x^2+y^3+z^5": (0, 0),
        "x^3+y^4+z^2": (0, 0),
    }
    for text, want in expected_totals.items():
        if totals[text] != want:
            failures.append("%s totals %s != %s" % (text, totals[text], want))
    elapsed = time.time() - t0
    _report("4 surface cohomology match", not failures, elapsed, "; ".join(failures))
    assert not failures
    assert elapsed < 600


def test_criterion_5_homology():
    t0 = time.time()
    failures = []
    for text, weights, _ in CATALOG:
        P = structure(text, weights)
        M = check_isolated(P.phi, P.weights)
        fw = default_form_window(P)
        s = P.weight_sum
        # the boundary equals (-1)^k times the coboundary^{3-k} in every
        # degree: their symbols agree, on every probe of the certificate
        if duality_identity_holds(P) != (28, ""):
            failures.append("%s bridge" % text)
        for k in range(4):
            h = homology_dims(P, k, fw)
            co = brute_force_dims(P, 3 - k, (fw[0] - s, fw[1] - s))
            if h.as_dict() != {i + s: n for i, n in co.dims}:
                failures.append("%s H_%d shift" % (text, k))
            if not h.matches(predicted_dims(ambient_homology_description(P, M, k), fw)):
                failures.append("%s H_%d closed form" % (text, k))
    surface_expect = {
        "x^3+y^3+z^3": (8, 7, 8, 8),
        "x^2+y^2+z^2": (1, 0, 1, 1),
        "x^4+y^4+z^4": (27, 26, 27, 27),
    }
    for text, want in surface_expect.items():
        P = structure(text, (1, 1, 1))
        M = check_isolated(P.phi, P.weights)
        fw = default_form_window(P)
        got = []
        for k in range(4):
            computed = surface_homology_dims(P, k, fw)
            got.append(computed.total())
            if not computed.matches(
                predicted_dims(surface_homology_description(P, M, k), fw)
            ):
                failures.append("%s surface H_%d" % (text, k))
        if tuple(got) != want:
            failures.append("%s surface totals %s != %s" % (text, tuple(got), want))
    elapsed = time.time() - t0
    _report("5 homology (duality + surface)", not failures, elapsed, "; ".join(failures))
    assert not failures
    assert elapsed < 600


def test_criterion_6_structural_property_suites():
    t0 = time.time()
    failures = []
    pairs = {
        "curl_of_scalar_product": 10 * 30, "div_of_scalar_product": 10 * 30,
        "div_of_cross_product": 30 * 30, "curl_of_gradient_vanishes": 10,
        "div_of_gradient_cross_vanishes": 10 * 10, "bracket_matches_biderivation": 10 * 10,
        "coboundary_squared_vanishes": 40, "casimir_multiplication_commutes": 40,
        "jacobi_identity": 1,
    }
    for text, weights, _ in CATALOG:
        P = structure(text, weights)
        window = default_window(P)
        degrees = range(window[0], window[1] + 1)
        monomials = sum(len(monomials_of_degree(i, P.weights)) for i in degrees)
        probe_sets = dict(pairs, euler_degree_formula=monomials, euler_divergence_formula=monomials)
        results = identities_suite(P, window)
        if sorted(r.name for r in results) != sorted(probe_sets):
            failures.append("%s: families %s" % (text, [r.name for r in results]))
        for res in results:
            if not res.passed:
                failures.append("%s %s: %s" % (text, res.name, res.details))
            elif res.cases != probe_sets.get(res.name):
                failures.append("%s %s ran %d of %s probes" % (
                    text, res.name, res.cases, probe_sets.get(res.name)))
        for res in koszul_suite(P, window):
            if not res.passed:
                failures.append("%s %s: %s" % (text, res.name, res.details))
        for res in run_suite(P, "cohomology", window)[0]:
            if not res.passed:
                failures.append("%s %s: %s" % (text, res.name, res.details))
    elapsed = time.time() - t0
    _report("6 structural property suites", not failures, elapsed, "; ".join(failures[:3]))
    assert not failures
    assert elapsed < 300


def test_criterion_7_koszul_caveat_for_xyz():
    t0 = time.time()
    P = structure("x*y*z", (1, 1, 1))
    results = {r.name: r for r in koszul_suite(P, (-3, 4))}
    second = results["koszul_second_exactness"]
    ok = not second.passed and "witness" in second.details

    # the classic counterexample: killed by .grad(phi), missed by x grad(phi)
    classic = VecPoly((parse_poly("x"), parse_poly("y"), parse_poly("-2*z")))
    ok = ok and dot(classic, P.nabla_phi).is_zero()
    dotm = operator_matrix(P, "koszul1", 0)
    image = Echelon()
    for col in operator_matrix(P, "koszul2", -3).columns:
        image.insert(col)
    ok = ok and not image.contains(dotm.source.coords_of(classic))

    elapsed = time.time() - t0
    _report("7 second-part caveat for x*y*z", ok, elapsed, second.details)
    assert ok
    assert elapsed < 1
