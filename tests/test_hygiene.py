"""Source hygiene that needs no linter: no unused import in src/ or tests/,
no package export and no definition under src/ that only the tests use, no
sampling in src/, no boundary defined through the coboundary, no Fraction
in linalg, no engine matrix or symbol built outside its one constructor
(BUILDERS), no block read past operator_columns (READERS), no certificate
family named under src/ that fails on a catalog structure, and no JSON
indented by json.dumps under src/ (report.render_json is the one writer).

An imported name counts as used when it is read anywhere in its module,
appears in a string annotation, or is listed in the module's __all__ (the
package's re-exports).  A name in poissonsing.__all__, the name of any
function, method or class defined under src/ and any name a module-level
assignment under src/ binds (dunders aside) counts as used when src/ or
demos/ read it outside its own definition.  The engine and its
certificates are exact and deterministic, so no module under src/ imports
random; random inputs belong to the tests.  The engine works on an
integral multiple of phi, so linalg neither imports nor reads Fraction and
clears no denominator (no to_int_vector).  An unbounded cache keeps its
entries for the life of the process, so every one under src/ is listed in
UNBOUNDED_CACHES, and a new one fails until it is listed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import poissonsing
from poissonsing import complexes

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
SOURCES = SRC + sorted((ROOT / "tests").rglob("*.py"))
CALLERS = SRC + sorted((ROOT / "demos").rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(tree: ast.Module) -> set[str]:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree) | _exported(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_no_unused_imports():
    found = [
        "%s:%d imports %s but never uses it" % (path.relative_to(ROOT), line, name)
        for path in SOURCES
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "\n".join(found)


def test_checker_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from typing import Sequence\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "def f(xs: 'Sequence[int]'):\n"
        "    return gcd(*xs)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "least")]


def names_read(source: str) -> set[str]:
    """Names and attributes the module reads, except a top-level function's
    or class's reads of its own name inside its definition."""
    names = set()
    for statement in ast.parse(source).body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                names.add(name)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    read = set().union(*(names_read(path.read_text()) for path in CALLERS))
    unread = sorted(set(poissonsing.__all__) - read)
    assert not unread, "exported but read only by the tests: %s" % ", ".join(unread)


def test_export_scan_skips_imports_exports_and_self_reference():
    source = (
        "from .poly import parse_poly, weighted_degree\n"
        "__all__ = ['parse_poly', 'closed_form']\n"
        "def closed_form(k):\n"
        "    return closed_form(k - 1) if k else weighted_degree\n"
        "class Space:\n"
        "    def copy(self):\n"
        "        return Space()\n"
        "def report(P):\n"
        "    return P.degree, Space\n"
    )
    read = names_read(source)
    assert {"weighted_degree", "degree", "Space", "P"} <= read
    assert not {"parse_poly", "closed_form", "copy", "report"} & read


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every function, method and class the module defines,
    at any depth, and of every name a module-level assignment binds, except
    dunders (the language reads those; __all__ lists the exports)."""
    tree = ast.parse(source)
    found = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        found += [
            (statement.lineno, node.id)
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        ]
    return sorted(
        (line, name) for line, name in found
        if not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_under_src_is_read():
    read = set().union(*(names_read(path.read_text()) for path in CALLERS))
    found = [
        "%s:%d defines %s, which src/ and demos/ never read" % (path.relative_to(ROOT), line, name)
        for path in SRC
        for line, name in definitions(path.read_text())
        if name not in read
    ]
    assert not found, "\n".join(found)


def test_definition_scan_sees_unread_functions_methods_and_classes():
    source = (
        "class Weights:\n"
        "    @classmethod\n"
        "    def of(cls, a):\n"
        "        return cls(a)\n"
        "    def __eq__(self, other):\n"
        "        return self.total() == other.total()\n"
        "    async def total(self):\n"
        "        return 0\n"
        "class Unused:\n"
        "    pass\n"
        "def recurse(n):\n"
        "    return recurse(n - 1)\n"
        "def main():\n"
        "    def helper():\n"
        "        return Weights\n"
        "    return helper()\n"
        "main()\n"
        "LIMIT = 3\n"
        "ORDER: int = 2\n"
        "__all__ = ['main']\n"
        "__version__ = '1'\n"
        "print(ORDER)\n"
    )
    read = names_read(source)
    assert [d for d in definitions(source) if d[1] not in read] == [
        (3, "of"), (9, "Unused"), (11, "recurse"), (18, "LIMIT")
    ]


def imports_of(source: str, module: str) -> list[int]:
    """Lines that import the top-level module, or a name from it, at any
    depth of the module; relative imports name the package's own modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.partition(".")[0] == module for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_under_src_imports_random():
    found = [
        "%s:%d imports random" % (path.relative_to(ROOT), line)
        for path in SRC
        for line in imports_of(path.read_text(), "random")
    ]
    assert not found, "\n".join(found)


def test_random_scan_sees_every_import_form():
    source = (
        "import random\n"
        "import os, random as rng\n"
        "from random import Random\n"
        "from .random_cases import draw\n"
        "from . import random\n"
        "import randomness\n"
        "text = 'import random'\n"
        "def f():\n"
        "    from random import choice\n"
    )
    assert imports_of(source, "random") == [1, 2, 3, 9]


COBOUNDARIES = {"delta", "delta0", "delta1", "delta2"}


def names_in_method(source: str, cls: str, method: str) -> set[str]:
    """The names and attributes a method of a top-level class reads."""
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.ClassDef) and statement.name == cls:
            for node in statement.body:
                if isinstance(node, ast.FunctionDef) and node.name == method:
                    return {
                        n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute))
                    }
    raise LookupError("%s.%s is not defined" % (cls, method))


def test_the_boundary_is_not_defined_by_the_coboundary():
    # boundary_equals_signed_coboundary compares the two operators; a
    # boundary that reads delta would make it compare an operator with itself
    source = (ROOT / "src" / "poissonsing" / "poisson.py").read_text()
    read = names_in_method(source, "PoissonStructure", "boundary") & COBOUNDARIES
    assert not read, "PoissonStructure.boundary reads %s" % ", ".join(sorted(read))


def test_method_scan_sees_names_and_attributes():
    source = (
        "class P:\n"
        "    def boundary(self, k, c):\n"
        "        return -self.delta2(c) if k == 1 else delta(k, c)\n"
        "    def other(self):\n"
        "        return self.delta1\n"
    )
    assert names_in_method(source, "P", "boundary") & COBOUNDARIES == {"delta", "delta2"}


# The structure's operators, as methods of PoissonStructure.
STRUCTURE_METHODS = {"delta", "delta0", "delta1", "delta2", "boundary"}


def calls(source: str):
    """(line, name, whether called as an attribute, enclosing top-level
    definition or "") of every call of a name."""
    for statement in ast.parse(source).body:
        owner = getattr(statement, "name", "")
        for node in ast.walk(statement):
            if isinstance(node, ast.Call):
                func = node.func
                attribute = isinstance(func, ast.Attribute)
                name = func.attr if attribute else getattr(func, "id", None)
                yield node.lineno, name, attribute, owner


def operator_calls(source: str) -> list[tuple[int, str, str]]:
    """(line, name, enclosing top-level definition or "") of every call of a
    STRUCTURE_METHODS attribute and of named_operator, bare or as an attribute."""
    return sorted(
        (line, name, owner) for line, name, attribute, owner in calls(source)
        if (attribute and name in STRUCTURE_METHODS) or name == "named_operator"
    )


def test_structure_operators_run_only_on_their_symbols():
    # every evaluation of an operator reads its symbol (linalg.matrix_of,
    # linalg.apply_symbol): only PoissonStructure calls its own methods, and
    # named_operator is called only to extract a symbol
    found = [
        "%s:%d calls %s" % (path.relative_to(ROOT), line, name)
        for path in SRC
        for line, name, owner in operator_calls(path.read_text())
        if not (path.name == "poisson.py" and name != "named_operator")
        and (path.name, name, owner) != ("operators.py", "named_operator", "_symbol")
    ]
    assert not found, "\n".join(found)


def test_operator_call_scan_sees_every_call_form():
    source = (
        "def _symbol(P, name):\n"
        "    return named_operator(P, name)\n"
        "def other(P, c):\n"
        "    op = operators.named_operator(P, 'delta0')\n"
        "    return P.delta(0, c), P.delta1(c), self.boundary(1, c)\n"
        "def fine(P, c):\n"
        "    return partial(P.delta, 0), P.delta3(c), P.bracket(c, c), delta2(c), named_operator\n"
        "class K:\n"
        "    def m(self, c):\n"
        "        return self.delta2(c)\n"
        "x = named_operator(None, 'de_rham1')\n"
    )
    assert operator_calls(source) == [
        (2, "named_operator", "_symbol"), (4, "named_operator", "other"), (5, "boundary", "other"),
        (5, "delta", "other"), (5, "delta1", "other"), (10, "delta2", "K"),
        (11, "named_operator", ""),
    ]


# The one place under src/ that may call each builder of linalg, as (module,
# top-level definition): every engine matrix is filled by operator_matrix
# from the grading table, and every symbol is extracted by the cached _symbol.
BUILDERS = {
    "matrix_of": ("operators", "operator_matrix"),
    "symbol_of": ("operators", "_symbol"),
}


def builder_calls(source: str) -> list[tuple[int, str, str]]:
    """(line, name, enclosing top-level definition or "") of every call of a
    BUILDERS name, bare or as an attribute."""
    return sorted((line, name, owner) for line, name, _, owner in calls(source) if name in BUILDERS)


def test_matrices_and_symbols_are_built_in_one_place_each():
    found = [
        (name, path.stem, owner, "%s:%d" % (path.relative_to(ROOT), line))
        for path in SRC
        for line, name, owner in builder_calls(path.read_text())
    ]
    stray = ["%s calls %s" % (where, name) for name, module, owner, where in found
             if (module, owner) != BUILDERS[name]]
    assert not stray, "\n".join(stray)
    assert sorted(name for name, *_ in found) == sorted(BUILDERS)


def test_builder_call_scan_sees_every_call_form():
    source = (
        "def operator_matrix(P, name, i):\n"
        "    return matrix_of(symbol, source, target)\n"
        "def other(op):\n"
        "    return linalg.symbol_of(op, 1), matrix_of\n"
        "class K:\n"
        "    def m(self):\n"
        "        return self.matrix_of(s, a, b)\n"
        "x = symbol_of(grad, 1)\n"
    )
    assert builder_calls(source) == [
        (2, "matrix_of", "operator_matrix"), (4, "symbol_of", "other"), (7, "matrix_of", "K"),
        (8, "symbol_of", ""),
    ]


# The places under src/ that may read each block constructor of operators,
# as (module, top-level definition): every engine block is read off its
# skip set through operator_columns, the one reader of the kept blocks, and
# outside operators only the gate fills a matrix itself, as it must keep
# nothing for a phi it rejects.
READERS = {
    "kept_matrix": {("operators", "operator_columns")},
    "operator_matrix": {
        ("operators", "kept_matrix"), ("operators", "operator_columns"),
        ("milnor", "_quotient_monomials"),
    },
}


def reader_uses(source: str, names=READERS) -> list[tuple[int, str, str]]:
    """(line, name, enclosing top-level definition or "") of every read of
    one of names (default: a READERS name), bare or as an attribute, called
    or not."""
    found = []
    for statement in ast.parse(source).body:
        owner = getattr(statement, "name", "")
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in names:
                found.append((node.lineno, name, owner))
    return sorted(found)


def test_blocks_are_read_through_one_reader():
    found = [
        (name, path.stem, owner, "%s:%d" % (path.relative_to(ROOT), line))
        for path in SRC
        for line, name, owner in reader_uses(path.read_text())
    ]
    stray = ["%s reads %s" % (where, name) for name, module, owner, where in found
             if (module, owner) not in READERS[name]]
    assert not stray, "\n".join(stray)
    assert {(name, module, owner) for name, module, owner, _ in found} == {
        (name, *place) for name, places in READERS.items() for place in places
    }


def test_reader_scan_sees_every_read_form():
    source = (
        "def operator_columns(P, name, i):\n"
        "    return kept_matrix(P, name, i).columns\n"
        "def other(P):\n"
        "    build = operators.operator_matrix\n"
        "    return [kept_matrix], build(P, 'delta0', 0)\n"
        "class K:\n"
        "    def m(self):\n"
        "        return self.kept_matrix(None, 'phi0', 0)\n"
        "kept_matrix = 'a binding, not a read'\n"
        "x = operator_matrix(None, 'delta0', 0)\n"
    )
    assert reader_uses(source) == [
        (2, "kept_matrix", "operator_columns"), (4, "operator_matrix", "other"),
        (5, "kept_matrix", "other"), (8, "kept_matrix", "K"), (10, "operator_matrix", ""),
    ]


# The one place under src/ that may read operators.phi_multiple_pivots, as
# (module, top-level definition): the pivots of the phi-multiples are a
# skip set only where a row's licence grants them, which complexes.skipped
# checks, so that no column is skipped without a certificate.
PHI_MULTIPLE_READERS = {("complexes", "skipped")}


def test_phi_multiple_pivots_are_read_only_where_a_licence_is_checked():
    found = [
        (path.stem, owner, "%s:%d" % (path.relative_to(ROOT), line))
        for path in SRC
        for line, _, owner in reader_uses(path.read_text(), {"phi_multiple_pivots"})
    ]
    stray = ["%s reads phi_multiple_pivots" % where for module, owner, where in found
             if (module, owner) not in PHI_MULTIPLE_READERS]
    assert not stray, "\n".join(stray)
    assert {(module, owner) for module, owner, _ in found} == PHI_MULTIPLE_READERS


def test_phi_multiple_scan_sees_every_read_form():
    source = (
        "from .operators import phi_multiple_pivots\n"
        "def phi_multiple_pivots(P, k, i):\n"
        "    return 0\n"
        "def skipped(P, p, j):\n"
        "    return phi_multiple_pivots(P, p, j - P.degree)\n"
        "def other(P):\n"
        "    read = operators.phi_multiple_pivots\n"
        "    return [phi_multiple_pivots], read(P, 0, 0)\n"
        "class K:\n"
        "    def m(self):\n"
        "        return self.phi_multiple_pivots(None, 0, 0)\n"
        "x = phi_multiple_pivots(None, 0, 0)\n"
    )
    assert reader_uses(source, {"phi_multiple_pivots"}) == [
        (5, "phi_multiple_pivots", "skipped"), (7, "phi_multiple_pivots", "other"),
        (8, "phi_multiple_pivots", "other"), (11, "phi_multiple_pivots", "K"),
        (12, "phi_multiple_pivots", ""),
    ]


def fraction_uses(source: str) -> list[int]:
    """Lines that import the fractions module, or bind or read the name
    Fraction (imported from anywhere, or as an attribute)."""
    tree = ast.parse(source)
    lines = set(imports_of(source, "fractions"))
    lines |= {line for name, line in _imported(tree).items() if name == "Fraction"}
    lines |= {
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    }
    return sorted(lines)


def test_linalg_works_in_integers_only():
    # the engine's matrices come from an integral multiple of phi, so the
    # echelon takes int vectors alone and clears no denominator
    source = (ROOT / "src" / "poissonsing" / "linalg.py").read_text()
    assert fraction_uses(source) == [], "linalg uses Fraction"
    assert "to_int_vector" not in {name for _, name in definitions(source)}


def test_fraction_scan_sees_every_form():
    source = (
        "import fractions\n"
        "from fractions import Fraction as F\n"
        "from .poly import Fraction\n"
        "x = poly.Fraction(1, 2)\n"
        "def f(v: Fraction):\n"
        "    return Fraction\n"
        "text = 'Fraction'\n"
        "def to_int_vector(vec):\n"
        "    return vec\n"
    )
    assert fraction_uses(source) == [1, 2, 3, 4, 5, 6]
    assert (8, "to_int_vector") in definitions(source)


def certificate_families(source: str) -> list[tuple[int, str]]:
    """(line, family) of every string literal passed as the family of a call
    to certificate, bare or as an attribute, by position or by keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "certificate":
            continue
        args = [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "family")]
        found += [
            (node.lineno, arg.value) for arg in args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ]
    return sorted(found)


def test_every_certificate_family_named_under_src_holds_on_a_catalog_structure(cubic):
    # a misspelled family would raise KeyError only on the path that reads it
    found = [
        (path.relative_to(ROOT), line, family)
        for path in SRC
        for line, family in certificate_families(path.read_text())
    ]
    assert found
    bad = []
    for path, line, family in found:
        try:
            cases, failure = complexes.certificate(cubic, family)
        except KeyError:
            cases, failure = 0, "no such family"
        if not cases or failure:
            bad.append("%s:%d names %r: %d cases, %r" % (path, line, family, cases, failure))
    assert not bad, "\n".join(bad)


def test_certificate_scan_sees_every_call_form():
    source = (
        "certificate(P, 'delta_family')\n"
        "complexes.certificate(P, \"boundary_family\")[1]\n"
        "certificate(P, family='keyword_family')\n"
        "certificate(P, name)\n"
        "certify(P, 'other')\n"
        "x = 'not_passed'\n"
        "def f(P):\n"
        "    return not certificate(P, 'nested_family')[1]\n"
    )
    assert certificate_families(source) == [
        (1, "delta_family"), (2, "boundary_family"), (3, "keyword_family"), (8, "nested_family")
    ]


def indented_dumps(source: str) -> list[int]:
    """Lines of every call of dumps or dump, bare or as an attribute, that
    passes indent (a keyword-only argument): the standard library then takes
    its pure-Python encoder, and report.render_json writes the same bytes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("dumps", "dump") and any(kw.arg == "indent" for kw in node.keywords):
            found.append(node.lineno)
    return sorted(found)


def test_reports_have_one_json_writer():
    found = [
        "%s:%d indents JSON through json.dumps" % (path.relative_to(ROOT), line)
        for path in SRC
        for line in indented_dumps(path.read_text())
    ]
    assert not found, "\n".join(found)


def test_indented_dumps_scan_sees_every_call_form():
    source = (
        "import json\n"
        "from json import dumps\n"
        "a = json.dumps(report, indent=2, sort_keys=True)\n"
        "b = json.dumps(report, sort_keys=True)\n"
        "def f(x):\n"
        "    return dumps(x, indent=None)\n"
        "json.dump(x, stream, indent=1)\n"
        "render_json(report)\n"
    )
    assert indented_dumps(source) == [3, 6, 7]


# Every unbounded cache under src/, as "module.function".
UNBOUNDED_CACHES = {
    "complexes.certificate",
    "complexes.stack_pivots",
    "linalg.basis_of",
    "milnor.check_isolated",
    "operators._symbol",
    "operators.kept_matrix",
}


def _unbounded(decorator: ast.expr) -> bool:
    """lru_cache(maxsize=None), lru_cache(None) or cache, bare or as an
    attribute of functools; a bare lru_cache is bounded (128 entries)."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    sizes = [*decorator.args[:1], *(kw.value for kw in decorator.keywords if kw.arg == "maxsize")]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def unbounded_caches(source: str) -> list[tuple[int, str]]:
    """(line, name) of every function, at any depth, under an unbounded cache."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_unbounded(d) for d in node.decorator_list)
    )


def test_every_unbounded_cache_is_listed():
    found = {
        "%s.%s" % (path.stem, name): "%s:%d" % (path.relative_to(ROOT), line)
        for path in SRC
        for line, name in unbounded_caches(path.read_text())
    }
    unlisted = [
        "%s puts an unbounded cache on %s, which UNBOUNDED_CACHES does not list" % (where, name)
        for name, where in sorted(found.items())
        if name not in UNBOUNDED_CACHES
    ]
    assert not unlisted, "\n".join(unlisted)
    assert sorted(UNBOUNDED_CACHES - set(found)) == [], "listed caches that are gone"


def test_cache_scan_sees_every_unbounded_form():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@functools.lru_cache(None)\n"
        "def b(): pass\n"
        "@cache\n"
        "def c(): pass\n"
        "@functools.cache\n"
        "def d(): pass\n"
        "@lru_cache(maxsize=4)\n"
        "def e(): pass\n"
        "@lru_cache\n"
        "def f(): pass\n"
        "class K:\n"
        "    @staticmethod\n"
        "    @lru_cache(maxsize=None)\n"
        "    def g(x): pass\n"
    )
    assert unbounded_caches(source) == [(4, "a"), (6, "b"), (8, "c"), (10, "d"), (18, "g")]

