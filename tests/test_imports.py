"""Every top-level import of the package and the tests is used: a name an
import binds must be read somewhere in the module or be listed in its
``__all__``.  Every top-level function and class of the package is named
somewhere in the package, the tests or the benchmark outside its own
definition."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mplparity").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def words(node: ast.AST) -> set[str]:
    """Names read, attributes, imported names and the words of string
    constants (the benchmark's tracer names its targets in strings)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(re.findall(r"\w+", n.value))
    return out


def unnamed_definitions() -> list[str]:
    named = defaultdict(set)  # word -> top-level statements that name it
    definitions = []
    for path in SOURCES:
        for i, stmt in enumerate(ast.parse(path.read_text(), filename=str(path)).body):
            for word in words(stmt):
                named[word].add((path, i))
            if path in PACKAGE and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path, i, stmt.name))
    return [f"{path.name}:{name}" for path, i, name in definitions
            if not named[name] - {(path, i)}]


def test_every_definition_is_named_elsewhere():
    assert unnamed_definitions() == []
