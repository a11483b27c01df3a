"""Per-layer spans around the public entry points of the poissonsing modules.

The tracer lives outside the package: it replaces each entry point listed in
LAYERS with a wrapper that opens a span on a stack of open spans and, when
the span closes, adds to its layer one call and the span's self time: its
duration minus the durations of the spans nested directly inside it.  The
outermost span is cli.main, so the self times of all layers, plus the
tracer's own counting (booked as trace.counting), add up to the wall time of
the traced cli.main calls.

An entry point is replaced by identity in every poissonsing module that bound
it, so `from .cohomology import brute_force_dims` inside homology is traced
as well.  A listed entry point that no longer exists raises MissingLayer
naming it: a refactor that removes a layer entry point shows up as a missing
layer, never as a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "poissonsing"

# layer -> entry points ("module:attribute" or "module:Class.method").
# Nested spans of one layer are allowed; self times stay exact.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("cli:main",),
    "linalg.echelon": (
        "linalg:Echelon.insert",
        "linalg:Echelon.insert_int",
        "linalg:Echelon.contains",
    ),
    "linalg.matrix_build": ("linalg:matrix_of",),
    "linalg.basis": ("linalg:basis_of",),
    "milnor.gate": ("milnor:check_isolated",),
    "cohomology.ambient": ("cohomology:brute_force_dims",),
    "cohomology.surface": (
        "cohomology:surface_brute_force_dims",
        "cohomology:surface_cochain_dim",
    ),
    "homology.ambient": ("homology:homology_dims", "homology:duality_identity_holds"),
    "homology.surface": ("homology:surface_homology_dims", "homology:projection_commutes"),
    "suites.identities": ("suites:identities_suite",),
    "suites.koszul": ("suites:koszul_suite",),
    "suites.cohomology": ("suites:cohomology_suite",),
    "suites.homology": ("suites:homology_suite",),
    "suites.surface": ("suites:surface_suite",),
    "report.build": ("report:build_report",),
    "report.render": ("report:render_text", "report:suite_lines", "report:first_mismatch"),
}


class MissingLayer(RuntimeError):
    """A traced entry point no longer exists in the package."""


def resolve(entry: str):
    """(owner, attribute name, object) of one "module:attr" entry point."""
    module_name, _, path = entry.partition(":")
    owner = importlib.import_module("%s.%s" % (PACKAGE, module_name))
    *parents, name = path.split(".")
    try:
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, name, owner.__dict__[name]
    except (AttributeError, KeyError):
        raise MissingLayer(
            "traced entry point %s.%s no longer exists" % (PACKAGE, entry.replace(":", "."))
        ) from None


def _entry_bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """Span stack plus per-layer self time, call counts and counters."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.entry_bits_max = 0
        self._stack: list[list[float]] = []

    def span(self, layer: str, fn, after=None):
        """Wrap fn so that every call records one span of the given layer."""
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        rejects = layer == "milnor.gate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if rejects and type(exc).__name__ == "NotIsolated":
                    self.counters["milnor.rejected"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        if after is None:
            return traced

        @functools.wraps(fn)
        def traced_then_counted(*args, **kwargs):
            # the counting pass is the tracer's own work: it is kept out of
            # the layer's span and booked as trace.counting, so that the self
            # times still add up to the traced wall time
            result = traced(*args, **kwargs)
            start = clock()
            after(result)
            elapsed = clock() - start
            self_s["trace.counting"] += elapsed
            if stack:
                stack[-1][0] += elapsed
            return result

        return traced_then_counted

    def _count_matrix(self, matrix) -> None:
        rows, cols = matrix.shape
        self.counters["linalg.matrix_cells"] += rows * cols
        nnz = 0
        bits = self.entry_bits_max
        for column in matrix.columns:
            nnz += len(column)
            for value in column.values():
                b = _entry_bits(value)
                if b > bits:
                    bits = b
        self.counters["linalg.matrix_nnz"] += nnz
        self.entry_bits_max = bits

    def install(self) -> "Tracer":
        """Replace every entry point of LAYERS in every loaded package module."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, entries in LAYERS.items():
            for entry in entries:
                owner, name, original = resolve(entry)
                after = self._count_matrix if entry == "linalg:matrix_of" else None
                wrapper = self.span(layer, original, after)
                setattr(owner, name, wrapper)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        return self

    def snapshot(self) -> dict:
        """Plain-data totals, as sent from a worker to the benchmark."""
        counters = dict(self.counters)
        counters["linalg.entry_bits_max"] = self.entry_bits_max
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": counters,
        }


def cache_stats(basis_of) -> dict:
    """Summed lru_cache statistics of basis_of (the cached function itself,
    not a tracer wrapper) and of every cache defined in operators."""
    operators = importlib.import_module(PACKAGE + ".operators")
    basis = basis_of.cache_info()
    hits = misses = entries = 0
    for value in vars(operators).values():
        if callable(getattr(value, "cache_info", None)) and (
            getattr(value, "__module__", None) == operators.__name__
        ):
            info = value.cache_info()
            hits += info.hits
            misses += info.misses
            entries += info.currsize
    return {
        "basis_hits": basis.hits,
        "basis_misses": basis.misses,
        "operators_hits": hits,
        "operators_misses": misses,
        "operators_entries": entries,
    }
