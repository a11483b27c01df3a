"""Analysis report: gate result, Milnor data, all sixteen (co)homology spaces
with predicted and computed Hilbert functions, suite summary, conventions.

Reports are plain dicts of JSON-serializable values, deterministic given the
input (every check and every dim is exact; the seed is only echoed), so two
runs with the same flags produce byte-identical output; render_json writes
them as json.dumps(report, indent=2, sort_keys=True) would.  The gate runs once,
in gate_section, and its Milnor data goes to the one run_suite call, which
runs every suite and hands back the four space families it computed; the
sixteen entries are built from those Space records, so each space is
computed once per run, and the exit code is read from the suite results
alone (each space's match is a suite family; first_mismatch names a space
before a failed family, such as the boundary's duality certificate).
"""

from __future__ import annotations

from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from typing import Any

from . import cohomology as ch
from .complexes import space_label
from .milnor import MilnorData, NotIsolated, check_isolated
from .poisson import PoissonStructure
from .poly import Poly
from .suites import CheckResult, Space, difference_text, run_suite


def _describe(desc: ch.ModuleDescription) -> dict[str, Any]:
    return {
        "coefficient_ring": desc.coefficient_ring,
        "cas_period": desc.cas_period,
        "zero": desc.zero,
        "free_rank": desc.free_rank(),
        "finite_part": desc.finite_count(),
        "generators": [
            {
                "label": g.label,
                "representative": str(g.representative),
                "degree": g.degree,
                "kind": g.kind,
            }
            for g in desc.generators
        ],
    }


def _space_entry(space: Space) -> dict[str, Any]:
    return {
        "description": _describe(space.description),
        "predicted": space.predicted.pairs(),
        "computed": space.computed.pairs(),
        "match": space.matches,
        "window": list(space.predicted.window),
        "grading": space.grading,
    }


def _conventions(P: PoissonStructure, seed: int) -> dict[str, Any]:
    return {
        "monomial_order": "graded-lex with x > y > z, listed descending",
        "derivation_grading": (
            "X^1 components live in degrees i+w_j, X^2 in i+|w|-w_j, X^3 in i+|w|; "
            "negative degrees are allowed"
        ),
        "form_grading": (
            "Omega^k identified with X^{3-k}; form degree = derivation degree + |w| "
            "(|w| = %d here)" % P.weight_sum
        ),
        "boundary_sign": "boundary_k = (-1)^k * coboundary^{3-k} under that identification",
        "casimir_expansion": (
            "a free generator of degree e contributes one dimension at e, e+d, e+2d, ... "
            "with d = deg(phi) = %d" % P.degree
        ),
        "finiteness_certificate": (
            "gate accepts iff the Jacobian quotient vanishes on degrees "
            "(3d-2|w|, 3d-2|w|+max(w)]; vanishing there propagates upward"
        ),
        "basis_choice": (
            "u_j are monomials extending the Jacobian echelon, greedy in the fixed "
            "order; dimension data is basis-independent, representatives are not"
        ),
        "seed": seed,
    }


def gate_section(P: PoissonStructure) -> tuple[dict[str, Any], MilnorData | None]:
    try:
        milnor = check_isolated(P.phi, P.weights)
        return {"accepted": True}, milnor
    except NotIsolated as exc:
        section: dict[str, Any] = {"accepted": False, "reason": exc.reason}
        if exc.witness_degree is not None:
            section["witness_degree"] = exc.witness_degree
        if exc.witness_monomial is not None:
            section["witness_monomial"] = str(Poly.monomial(exc.witness_monomial))
        return section, None


def milnor_section(P: PoissonStructure, M: MilnorData) -> dict[str, Any]:
    return {
        "degree": P.degree,
        "weight_sum": P.weight_sum,
        "coboundary_degree": P.coboundary_degree,
        "socle_bound": M.socle_bound,
        "mu": M.mu,
        "graded_dims": [[i, n] for i, n in M.graded_dims],
        "basis": [
            {"monomial": str(Poly.monomial(m)), "degree": d} for m, d in M.basis
        ],
    }


def build_report(
    phi_text: str,
    P: PoissonStructure,
    window: ch.Window | None = None,
    seed: int = 0,
) -> tuple[dict[str, Any], int]:
    """Assemble the full analysis; returns (report, exit_code)."""
    report: dict[str, Any] = {
        "input": {
            "phi": phi_text,
            "phi_canonical": str(P.phi),
            "weights": list(P.weights.weights),
            "seed": seed,
        }
    }
    gate, milnor = gate_section(P)
    report["gate"] = gate
    report["conventions"] = _conventions(P, seed)
    if milnor is None:
        report["invariants_summary"] = {}
        report["milnor"] = None
        report["cohomology"] = None
        report["homology"] = None
        return report, 3

    report["milnor"] = milnor_section(P, milnor)
    results, spaces = run_suite(P, "all", window, milnor)
    for block in ("cohomology", "homology"):
        report[block] = {
            side: {
                space_label(block, k): _space_entry(space)
                for k, space in enumerate(spaces[block, side])
            }
            for side in ("ambient", "surface")
        }
    report["invariants_summary"] = {r.name: "pass" if r.passed else "fail" for r in results}
    return report, 0 if all(r.passed for r in results) else 4


def first_mismatch(report: dict[str, Any]) -> str:
    """Name the first offending space and its first failing degree for the
    exit-4 diagnostic."""
    for block_name in ("cohomology", "homology"):
        block = report.get(block_name)
        if not block:
            continue
        for side in ("ambient", "surface"):
            for space, entry in block[side].items():
                if entry["match"]:
                    continue
                where = "%s/%s/%s" % (block_name, side, space)
                predicted, computed = (
                    ch.GradedDims(space, tuple(entry["window"]), tuple(map(tuple, entry[key])))
                    for key in ("predicted", "computed")
                )
                return "%s at %s" % (where, difference_text(entry["grading"], predicted, computed))
    for name, status in report.get("invariants_summary", {}).items():
        if status == "fail":
            return "invariant %s" % name
    return ""


def render_text(report: dict[str, Any]) -> str:
    """Plain-text rendering carrying the same numbers as the JSON."""
    lines: list[str] = []
    inp = report["input"]
    lines.append("phi = %s   weights = %s   seed = %d" % (
        inp["phi_canonical"], tuple(inp["weights"]), inp["seed"]))
    gate = report["gate"]
    if not gate["accepted"]:
        lines.append("gate: REJECTED -- %s" % gate["reason"])
        if "witness_degree" in gate:
            lines.append(
                "  witness: degree %d, monomial %s"
                % (gate["witness_degree"], gate.get("witness_monomial", "?"))
            )
        return "\n".join(lines) + "\n"
    m = report["milnor"]
    lines.append(
        "gate: accepted   mu = %d   deg(phi) = %d   |w| = %d   shift = %d   socle = %d"
        % (m["mu"], m["degree"], m["weight_sum"], m["coboundary_degree"], m["socle_bound"])
    )
    lines.append("quotient basis: " + ", ".join(
        "%s (deg %d)" % (b["monomial"], b["degree"]) for b in m["basis"]))
    for block_name in ("cohomology", "homology"):
        for side in ("ambient", "surface"):
            for space, entry in report[block_name][side].items():
                flag = "ok " if entry["match"] else "MISMATCH"
                dims = " ".join("%d:%d" % (i, n) for i, n in entry["computed"]) or "0"
                lines.append(
                    "%-10s %-8s %-5s [%s] dims %s"
                    % (space, side, flag, entry["grading"], dims)
                )
    lines.append("invariants:")
    for name, status in sorted(report["invariants_summary"].items()):
        lines.append("  %-45s %s" % (name, status))
    return "\n".join(lines) + "\n"


def render_json(obj: Any) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for dicts
    with str keys, lists, tuples (rendered as lists), str, int, bool and
    None; TypeError on any other type.  With indent set, json.dumps runs the
    standard library's pure-Python encoder; this writes the same text in one
    pass, escaping strings with its C escaper."""
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append)
    return "".join(chunks)


def _write_json(obj: Any, newline: str, write: Callable[[str], Any]) -> None:
    """Write obj as render_json does; newline opens the line of its closing bracket."""
    if isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner, opening = newline + "  ", "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            write(opening + inner + encode_basestring_ascii(key) + ": ")
            _write_json(obj[key], inner, write)
            opening = ","
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner, opening = newline + "  ", "["
        for item in obj:
            write(opening + inner)
            _write_json(item, inner, write)
            opening = ","
        write(newline + "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def suite_lines(results: list[CheckResult]) -> str:
    return "\n".join(r.line() for r in results) + "\n"
