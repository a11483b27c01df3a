"""Source hygiene that needs no linter: no unused import in src/ or tests/.

An imported name counts as used when it is read anywhere in its module,
appears in a string annotation, or is listed in the module's __all__ (the
package's re-exports).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


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
