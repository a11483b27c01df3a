"""Command-line interface: analyze | bracket | verify | milnor.

Exit codes: 0 success, 2 parse/validation failure, 3 rejected by the
isolated-singularity gate, 4 verification mismatch or failed check, or a
rank computation that contradicts itself (linalg.NegativeDimension).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import cohomology as ch
from .linalg import NegativeDimension
from .milnor import NotIsolated, check_isolated
from .poisson import PoissonStructure
from .poly import NotHomogeneous, Poly, PolyParseError, WeightSystem, parse_poly
from .report import build_report, first_mismatch, milnor_section, render_json, render_text
from .report import suite_lines
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_ISOLATED = 3
EXIT_MISMATCH = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--phi", required=True, help="polynomial in x, y, z")
    p.add_argument("--weights", default="1,1,1", help="positive coprime weights a,b,c")


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-degree", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="echoed in the analyze report; no longer changes any check")


def _add_cases(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cases", type=int, default=200,
                   help="at least 1; no longer changes any check (the identity "
                   "families run fixed probe sets)")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonsing",
        description=(
            "Exact Poisson (co)homology of the bracket attached to a "
            "weight-homogeneous polynomial with an isolated singularity"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full pipeline with verification")
    _add_common(p_an)
    _add_window(p_an)
    p_an.add_argument("--format", choices=("json", "text"), default="json")
    _add_cases(p_an)

    p_br = sub.add_parser("bracket", help="evaluate the bracket of two polynomials")
    _add_common(p_br)
    p_br.add_argument("f", help="first argument polynomial")
    p_br.add_argument("g", help="second argument polynomial")

    p_ve = sub.add_parser("verify", help="run invariant suites")
    _add_common(p_ve)
    _add_window(p_ve)
    p_ve.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    _add_cases(p_ve)

    p_mi = sub.add_parser("milnor", help="gate, Milnor number and quotient basis")
    _add_common(p_mi)
    p_mi.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _structure(args) -> PoissonStructure:
    weights = WeightSystem.from_string(args.weights)
    phi = parse_poly(args.phi)
    return PoissonStructure(phi, weights)


def _window(args, P: PoissonStructure) -> ch.Window:
    """The default window with the user's bounds applied; a window without a
    degree, or below -|w| (where X^3_j = A_{j+|w|}, the lowest piece, starts),
    would make every check vacuous, so it is refused.  An empty default
    window (phi of degree below |w|/5, a constant say) is named as such."""
    lo, hi = ch.default_window(P)
    if lo > hi and args.min_degree is None and args.max_degree is None:
        raise ValueError("empty default degree window: phi has degree %d and |w| = %d, so "
                         "[-|w|, 5*deg(phi) - 2*|w|] = [%d, %d] holds no degree"
                         % (P.degree, P.weight_sum, lo, hi))
    if args.min_degree is not None:
        lo = args.min_degree
    if args.max_degree is not None:
        hi = args.max_degree
    if lo > hi:
        bottom = ("min-degree %d" if args.min_degree is not None
                  else "the default min-degree %d (-|w|)") % lo
        top = ("max-degree %d" if args.max_degree is not None
               else "the default max-degree %d (5*deg(phi) - 2*|w|)") % hi
        raise ValueError("empty degree window: %s exceeds %s" % (bottom, top))
    if hi < -P.weight_sum:
        raise ValueError("degree window below every graded piece: max-degree %d is below "
                         "-|w| = %d, so every space is zero" % (hi, -P.weight_sum))
    return (lo, hi)


def _check_cases(args) -> None:
    if args.cases < 1:
        raise ValueError("--cases must be at least 1, got %d" % args.cases)


def cmd_analyze(args) -> int:
    P = _structure(args)
    _check_cases(args)
    report, code = build_report(args.phi, P, window=_window(args, P), seed=args.seed)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report), end="")
    if code == EXIT_MISMATCH:
        print("first mismatch: %s" % first_mismatch(report), file=sys.stderr)
    return code


def cmd_bracket(args) -> int:
    print(_structure(args).bracket(parse_poly(args.f), parse_poly(args.g)))
    return EXIT_OK


def cmd_verify(args) -> int:
    P = _structure(args)
    _check_cases(args)
    try:
        results, _ = run_suite(P, args.suite, window=_window(args, P))
    except NotIsolated as exc:
        print("rejected by the gate: %s" % exc, file=sys.stderr)
        return EXIT_NOT_ISOLATED
    print(suite_lines(results), end="")
    failed = [r for r in results if not r.passed]
    if failed:
        print("first failure: %s -- %s" % (failed[0].name, failed[0].details),
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_milnor(args) -> int:
    P = _structure(args)
    try:
        data = check_isolated(P.phi, P.weights)
    except NotIsolated as exc:
        print("rejected: %s" % exc, file=sys.stderr)
        return EXIT_NOT_ISOLATED
    if args.format == "json":
        section = milnor_section(P, data)
        payload = {key: section[key] for key in ("mu", "socle_bound", "graded_dims", "basis")}
        print(render_json(payload))
    else:
        print("mu = %d, socle bound = %d" % (data.mu, data.socle_bound))
        print("dims: " + " ".join("%d:%d" % (i, n) for i, n in data.graded_dims))
        print("basis: " + ", ".join(
            "%s (deg %d)" % (Poly.monomial(m), d) for m, d in data.basis))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler = {
            "analyze": cmd_analyze,
            "bracket": cmd_bracket,
            "verify": cmd_verify,
            "milnor": cmd_milnor,
        }[args.command]
        return handler(args)
    except (PolyParseError, NotHomogeneous, ValueError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except NegativeDimension as exc:
        print("first mismatch: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
