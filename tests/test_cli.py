from __future__ import annotations

import json
from collections import Counter

import pytest

from poissonsing import PoissonStructure, Poly, VecPoly, check_isolated, cli
from poissonsing import cohomology as ch
from poissonsing import homology as hm
from poissonsing.cli import main
from poissonsing.suites import space_family

from .conftest import boundary_plus, planted, structure

# the top-level keys of every analyze report
SCHEMA_KEYS = (
    "input",
    "gate",
    "invariants_summary",
    "milnor",
    "cohomology",
    "homology",
    "conventions",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_engine_calls(monkeypatch) -> Counter:
    """Count the calls of each (co)homology engine, under its name."""
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module, names in (
        (ch, ("brute_force_dims", "surface_brute_force_dims")),
        (hm, ("duality_identity_holds", "homology_dims", "surface_homology_dims")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


class TestBracketCommand:
    def test_sphere_xy(self, capsys):
        code, out, _ = run(capsys, "bracket", "--phi", "x^2+y^2+z^2", "x", "y")
        assert code == 0 and out.strip() == "2*z"

    def test_equal_arguments(self, capsys):
        code, out, _ = run(capsys, "bracket", "--phi", "x^2+y^2+z^2", "x+y", "x+y")
        assert code == 0 and out.strip() == "0"

    def test_cubic_yz(self, capsys):
        code, out, _ = run(capsys, "bracket", "--phi", "x^3+y^3+z^3", "y", "z")
        assert code == 0 and out.strip() == "3*x^2"

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "bracket", "--phi", "x^3+y^3+z^3", "x+", "z")
        assert code == 2 and "invalid input" in err


class TestAnalyzeCommand:
    def test_cubic_accepted(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--phi", "x^3+y^3+z^3", "--weights", "1,1,1",
            "--max-degree", "6", "--cases", "40",
        )
        assert code == 0
        report = json.loads(out)
        assert set(SCHEMA_KEYS) <= set(report)
        assert report["gate"]["accepted"] is True
        assert report["milnor"]["mu"] == 8
        assert all(
            entry["match"]
            for side in report["cohomology"].values()
            for entry in side.values()
        )
        assert all(
            entry["match"]
            for side in report["homology"].values()
            for entry in side.values()
        )
        assert report["cohomology"]["ambient"]["H0"]["predicted"] == [[0, 1], [3, 1], [6, 1]]

    def test_xyz_rejected(self, capsys):
        code, out, _ = run(capsys, "analyze", "--phi", "x*y*z")
        assert code == 3
        report = json.loads(out)
        assert report["gate"]["accepted"] is False
        assert report["gate"]["witness_degree"] == 4
        assert report["milnor"] is None

    def test_singular_line_rejected(self, capsys):
        code, out, _ = run(capsys, "analyze", "--phi", "x^2+y^2")
        assert code == 3
        report = json.loads(out)
        assert report["gate"]["witness_degree"] == 1
        assert report["gate"]["witness_monomial"] == "z"

    def test_inhomogeneous_is_invalid(self, capsys):
        code, _, err = run(capsys, "analyze", "--phi", "x^2+y^3")
        assert code == 2 and "invalid input" in err

    def test_bad_weights_are_invalid(self, capsys):
        code, _, err = run(capsys, "analyze", "--phi", "x^2+y^2+z^2", "--weights", "2,4,6")
        assert code == 2

    @pytest.mark.parametrize("weights", ["1,1,a", "1,1,1.5", "1,,1", "1,1,a,b"])
    def test_weights_that_are_not_three_integers_name_the_format(self, capsys, weights):
        code, out, err = run(capsys, "analyze", "--phi", "x^3+y^3+z^3", "--weights", weights)
        assert (code, out) == (2, "")
        assert err == "invalid input: weights must be given as three comma-separated integers\n"

    def test_byte_identical_reports(self, capsys):
        args = (
            "analyze", "--phi", "x^2+y^2+z^2", "--seed", "5",
            "--max-degree", "4", "--cases", "30",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_text_format_carries_same_numbers(self, capsys):
        args = ("analyze", "--phi", "x^2+y^2+z^2", "--max-degree", "4", "--cases", "30")
        code, out, _ = run(capsys, *args, "--format", "text")
        assert code == 0
        assert "gate: accepted" in out and "mu = 1" in out
        code, json_out, _ = run(capsys, *args, "--format", "json")
        report = json.loads(json_out)
        pairs = report["cohomology"]["ambient"]["H0"]["computed"]
        dims_text = " ".join("%d:%d" % (i, n) for i, n in pairs)
        assert dims_text in out

    def test_window_overrides_reported(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--phi", "x^2+y^2+z^2",
            "--min-degree", "-2", "--max-degree", "5", "--cases", "10",
        )
        assert code == 0
        report = json.loads(out)
        assert report["cohomology"]["ambient"]["H0"]["window"] == [-2, 5]
        assert report["homology"]["ambient"]["H_0"]["window"] == [1, 8]

    @pytest.mark.parametrize("argv", [
        ("analyze", "--phi", "x^3+y^3+z^3", "--min-degree", "5", "--max-degree", "2"),
        ("verify", "--phi", "x^3+y^3+z^3", "--suite", "identities", "--cases", "-5"),
        ("milnor", "--phi", "x^3+y^3+z^3", "--weights", ""),
        ("analyze", "--phi", "x^3+y^3+z^3", "--weights", ""),
        # below -|w| = -3 every graded piece, and so every space, is zero
        ("analyze", "--phi", "x^2+y^2+z^2", "--min-degree", "-100", "--max-degree", "-90"),
        ("verify", "--phi", "x^2+y^2+z^2", "--suite", "identities", "--max-degree", "-4",
         "--min-degree", "-10"),
    ])
    def test_vacuous_runs_are_invalid(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "invalid input:" in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_an_empty_default_window_names_phi_not_bounds(self, capsys, command):
        # a constant phi has degree 0, so its default window [-3, -6] is
        # empty; the user passed no bound, so no bound is blamed
        code, out, err = run(capsys, command, "--phi", "1")
        assert code == 2 and out == ""
        assert err == (
            "invalid input: empty default degree window: phi has degree 0 and |w| = 3, "
            "so [-|w|, 5*deg(phi) - 2*|w|] = [-3, -6] holds no degree\n"
        )

    def test_a_min_degree_above_the_default_top_names_the_default(self, capsys):
        # the user passed no max-degree, so the message names the default one
        code, out, err = run(capsys, "analyze", "--phi", "x^2+y^2+z^2", "--min-degree", "50")
        assert code == 2 and out == ""
        assert err == (
            "invalid input: empty degree window: min-degree 50 exceeds the default "
            "max-degree 4 (5*deg(phi) - 2*|w|)\n"
        )

    def test_a_max_degree_below_the_default_bottom_names_the_default(self, capsys):
        # the user passed no min-degree, so the message names the default one
        code, out, err = run(capsys, "analyze", "--phi", "x^2+y^2+z^2", "--max-degree", "-5")
        assert code == 2 and out == ""
        assert err == (
            "invalid input: empty degree window: the default min-degree -3 (-|w|) "
            "exceeds max-degree -5\n"
        )

    def test_rational_phi_gives_the_integral_dims(self, capsys):
        args = ("--max-degree", "6", "--cases", "20")
        tables = []
        for phi in ("1/2*x^3+1/2*y^3+1/2*z^3", "x^3+y^3+z^3"):
            code, out, _ = run(capsys, "analyze", "--phi", phi, *args)
            assert code == 0
            report = json.loads(out)
            tables.append({
                (block, side, space): entry["computed"]
                for block in ("cohomology", "homology")
                for side, spaces in report[block].items()
                for space, entry in spaces.items()
            })
        assert len(tables[0]) == 16
        assert tables[0] == tables[1]

    def test_unequal_denominators_give_the_tables_of_the_integral_multiple(self, capsys):
        # the engine ranks the matrices of 6*phi; the report keeps the user's phi
        args = ("--max-degree", "6", "--format", "json")
        reports = []
        for phi in ("1/2*x^3+1/3*y^3+z^3", "3*x^3+2*y^3+6*z^3"):
            code, out, _ = run(capsys, "analyze", "--phi", phi, *args)
            assert code == 0
            reports.append(json.loads(out))
        tables = [
            {(block, side, space): entry["computed"]
             for block in ("cohomology", "homology")
             for side, spaces in report[block].items()
             for space, entry in spaces.items()}
            for report in reports
        ]
        assert len(tables[0]) == 16
        assert tables[0] == tables[1]
        assert all(entry["match"] for table in (reports[0]["cohomology"], reports[0]["homology"])
                   for spaces in table.values() for entry in spaces.values())

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # force a wrong computed table to exercise the exit-4 path
        from poissonsing import report as rp

        real = ch.brute_force_dims

        def corrupted(P, k, window):
            dims = real(P, k, window)
            if k == 0:
                return ch.GradedDims(dims.space, dims.window, ((0, 7),))
            return dims

        monkeypatch.setattr(rp.ch, "brute_force_dims", corrupted)
        code, out, err = run(
            capsys, "analyze", "--phi", "x^2+y^2+z^2",
            "--max-degree", "4", "--cases", "10",
        )
        assert code == 4
        assert (
            "first mismatch: cohomology/ambient/H0 at degree 0: predicted 1, computed 7" in err
        )
        assert json.loads(out)["cohomology"]["ambient"]["H0"]["match"] is False

    def test_second_run_in_one_process_recomputes_its_spaces(self, capsys, monkeypatch):
        # nothing is cleared between the runs: a space kept from the first
        # run would hide the corrupted engine from the second
        argv = ("analyze", "--phi", "x^2+y^2+z^2", "--max-degree", "4", "--cases", "10")
        assert run(capsys, *argv)[0] == 0
        real = ch.brute_force_dims

        def corrupted(P, k, window):
            dims = real(P, k, window)
            return ch.GradedDims(dims.space, dims.window, ((0, 7),)) if k == 0 else dims

        monkeypatch.setattr(ch, "brute_force_dims", corrupted)
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert (
            "first mismatch: cohomology/ambient/H0 at degree 0: predicted 1, computed 7" in err
        )

    def test_a_boundary_of_the_other_sign_is_an_invariant_mismatch(self, capsys, monkeypatch):
        # -boundary is still a differential that descends, with the same
        # homology: every space matches, and only the duality certificate
        # sees that it is not (-1)^k * delta^{3-k}
        def boundary(self, k, chain):
            return -PoissonStructure.boundary(self, k, chain)

        monkeypatch.setattr(
            cli, "PoissonStructure", lambda phi, w: planted(str(phi), w.weights, boundary=boundary)
        )
        code, out, err = run(
            capsys, "analyze", "--phi", "x^2+y^2+z^2",
            "--max-degree", "4", "--cases", "10",
        )
        assert code == 4
        report = json.loads(out)
        assert all(
            entry["match"]
            for block in ("cohomology", "homology")
            for side in report[block].values()
            for entry in side.values()
        )
        failed = [name for name, status in report["invariants_summary"].items() if status == "fail"]
        assert failed == ["boundary_equals_signed_coboundary"]
        assert "first mismatch: invariant boundary_equals_signed_coboundary" in err

    def test_a_zero_boundary_is_an_ambient_homology_mismatch(self, capsys, monkeypatch):
        # the zero map fails the duality certificate, so ambient homology
        # ranks it on its own row: every cycle survives, and no H_k of A
        # matches its closed form (copied from cohomology, all four matched)
        def boundary(self, k, chain):
            return Poly.zero() if k == 1 else VecPoly.zero()

        monkeypatch.setattr(
            cli, "PoissonStructure", lambda phi, w: planted(str(phi), w.weights, boundary=boundary)
        )
        code, out, err = run(capsys, "analyze", "--phi", "x^2+y^2+z^2", "--max-degree", "4")
        assert code == 4
        ambient = json.loads(out)["homology"]["ambient"]
        assert [entry["match"] for entry in ambient.values()] == [False] * 4
        assert err == (
            "first mismatch: homology/ambient/H_0 at form degree 1: predicted 0, computed 3\n"
        )

    def test_window_may_be_a_list(self, sphere):
        from poissonsing.report import build_report

        report, code = build_report("x^2+y^2+z^2", sphere, window=[0, 3])
        assert code == 0
        assert report["cohomology"]["ambient"]["H0"]["window"] == [0, 3]

    def test_one_computation_per_space(self, capsys, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        code, _, _ = run(capsys, "analyze", "--phi", "x^3+y^3+z^3", "--cases", "5")
        assert code == 0
        # the default window holds 13 degrees; each engine runs once per
        # space (homology_dims on its own row of the table, not through
        # brute_force_dims), and the duality certificate once per structure,
        # for every degree
        assert calls == {
            "duality_identity_holds": 1,
            "homology_dims": 4,
            "surface_homology_dims": 4,
            "surface_brute_force_dims": 4,
            "brute_force_dims": 4,
        }


    def test_one_gate_call_per_analyze(self, capsys, monkeypatch):
        from poissonsing import cli, report, suites

        calls = []
        for module in (cli, report, suites):
            real = module.check_isolated

            def counted(phi, w, real=real):
                calls.append(str(phi))
                return real(phi, w)

            monkeypatch.setattr(module, "check_isolated", counted)
        code, _, _ = run(capsys, "analyze", "--phi", "x^2+y^2+z^2", "--max-degree", "4")
        assert code == 0
        assert calls == ["x^2+y^2+z^2"]


class TestVerifyCommand:
    def test_identities_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--phi", "x^2+y^2+z^2", "--suite", "identities",
            "--cases", "60", "--seed", "3",
        )
        assert code == 0
        assert "FAIL" not in out
        assert "jacobi_identity" in out

    def test_identities_ignore_seed_and_cases(self, capsys):
        args = ("verify", "--phi", "x^3+y^4+z^2", "--weights", "4,3,6", "--suite", "identities")
        first = run(capsys, *args, "--seed", "0", "--cases", "1")
        second = run(capsys, *args, "--seed", "3", "--cases", "200")
        assert first == second
        assert first[0] == 0 and "(900 cases)" in first[1]

    def test_koszul_failure_for_xyz(self, capsys):
        code, out, err = run(
            capsys, "verify", "--phi", "x*y*z", "--suite", "koszul",
            "--min-degree", "-3", "--max-degree", "5",
        )
        assert code == 4
        assert "FAIL koszul_second_exactness" in out
        assert "witness" in out
        assert "first failure" in err

    def test_koszul_exactness_failure_names_kernel_and_image(self, capsys):
        # x^2*y is singular along the z-axis: degree -1 has a kernel vector
        # of cross-with-grad(phi) that no grad(phi) multiple reaches
        code, out, _ = run(
            capsys, "verify", "--phi", "x^2*y", "--suite", "koszul",
            "--min-degree", "-3", "--max-degree", "5",
        )
        lines = {line.split()[1]: line for line in out.splitlines() if line[:4] in ("PASS", "FAIL")}
        assert code == 4
        assert lines["koszul_first_exactness"].endswith(
            "(3 cases) -- degree -1: kernel 1 vs image 0"
        )
        assert lines["de_rham_curl_exactness"].startswith("PASS")
        assert lines["de_rham_divergence_exactness"].startswith("PASS")

    def test_weighted_koszul_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--phi", "x^2+y^3+z^5", "--weights", "15,10,6",
            "--suite", "koszul", "--min-degree", "-10", "--max-degree", "40",
        )
        assert code == 0 and "FAIL" not in out

    def test_cohomology_suite_computes_only_its_family(self, capsys, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        code, _, _ = run(capsys, "verify", "--phi", "x^3+y^3+z^3", "--suite", "cohomology")
        assert code == 0
        assert calls == {"brute_force_dims": 4}

    def test_homology_mismatch_names_the_degree(self, capsys, monkeypatch):
        real = hm.homology_dims

        def corrupted(P, k, window):
            dims = real(P, k, window)
            return ch.GradedDims(dims.space, dims.window, ((0, 7),)) if k == 0 else dims

        monkeypatch.setattr(hm, "homology_dims", corrupted)
        code, out, err = run(
            capsys, "verify", "--phi", "x^2+y^2+z^2", "--suite", "homology",
            "--max-degree", "4",
        )
        assert code == 4
        detail = "H_0 form degree 0: predicted 1, computed 7"
        assert "FAIL ambient_H_0_matches_closed_form" in out and detail in out
        assert "first failure: ambient_H_0_matches_closed_form -- %s" % detail in err

    def test_gate_needed_suites_reject(self, capsys):
        code, _, err = run(capsys, "verify", "--phi", "x*y*z", "--suite", "cohomology")
        assert code == 3 and "rejected" in err


class TestMilnorCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "milnor", "--phi", "x^4+y^4+z^4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == 27
        assert payload["socle_bound"] == 6
        assert len(payload["basis"]) == 27

    def test_json_payload_is_the_analyze_section(self, capsys):
        args = ("--phi", "x^2+y^3+z^5", "--weights", "15,10,6")
        code, out, _ = run(capsys, "milnor", *args, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"mu", "socle_bound", "graded_dims", "basis"}
        code, out, _ = run(capsys, "analyze", *args, "--max-degree", "0", "--cases", "5")
        assert code == 0
        section = json.loads(out)["milnor"]
        assert payload == {key: section[key] for key in payload}

    def test_rejection_exit_code(self, capsys):
        code, _, err = run(capsys, "milnor", "--phi", "x*y*z")
        assert code == 3 and "witness degree 4" in err


# The closed form and the engine of each (block, side) family, by module
# and attribute name: space_family must run whatever is bound there now.
FAMILIES = {
    ("cohomology", "ambient"): (ch, "closed_form", "brute_force_dims"),
    ("cohomology", "surface"): (ch, "surface_closed_form", "surface_brute_force_dims"),
    ("homology", "ambient"): (hm, "ambient_homology_description", "homology_dims"),
    ("homology", "surface"): (hm, "surface_homology_description", "surface_homology_dims"),
}


@pytest.mark.parametrize("block,side", list(FAMILIES), ids=["/".join(key) for key in FAMILIES])
def test_space_family_runs_the_closed_form_and_engine_bound_now(monkeypatch, sphere, block, side):
    module, describe, compute = FAMILIES[block, side]
    milnor = check_isolated(sphere.phi, sphere.weights)
    before = space_family(sphere, milnor, (0, 3), block, side)
    monkeypatch.setattr(
        module, describe, lambda P, M, k: ch.ModuleDescription("closed_%d" % k, "F", None, ())
    )
    monkeypatch.setattr(
        module, compute, lambda P, k, window: ch.GradedDims("engine_%d" % k, window, ())
    )
    after = space_family(sphere, milnor, (0, 3), block, side)
    assert [s.description.space for s in after] == ["closed_%d" % k for k in range(4)]
    assert [s.computed.space for s in after] == ["engine_%d" % k for k in range(4)]
    assert [s.computed.window for s in after] == [s.computed.window for s in before]
    assert all(s.computed.dims == () for s in after)
    assert any(s.computed.dims for s in before)


CUBIC_BRACKETS = structure("x^3+y^3+z^3", (1, 1, 1)).d_brackets


def twice_the_bracket_terms(chain):
    """2 * sum_a d{x_u, x_v} * f_a on x^3+y^3+z^3: added to boundary_2, it
    negates the -f d{x_u, x_v} terms, so boundary_1 o boundary_2 != 0."""
    terms = sum((d * f for d, f in zip(CUBIC_BRACKETS, chain)), VecPoly.zero())
    return terms + terms


@pytest.mark.parametrize("command", [["analyze"], ["verify", "--suite", "homology"]],
                         ids=["analyze", "verify"])
def test_a_negative_dimension_is_a_mismatch_not_a_traceback(capsys, monkeypatch, command):
    # the broken boundary fails the duality certificate, so ambient homology
    # ranks it on its own row, and is the first space to raise
    boundary = boundary_plus(2, twice_the_bracket_terms)
    monkeypatch.setattr(
        cli, "PoissonStructure", lambda phi, w: planted(str(phi), w.weights, boundary=boundary)
    )
    code, out, err = run(capsys, *command, "--phi", "x^3+y^3+z^3", "--max-degree", "2")
    assert (code, out) == (4, "")
    assert err == (
        "first mismatch: negative dimension -3 of H_1_ambient at degree 5: n 45 - cycles 18 "
        "+ relations 0 - (boundaries 30 - constraint 0)\n"
    )
