"""Every module of the package uses each name it imports, and every
top-level definition is referenced somewhere.

A stdlib stand-in for a linter's unused-import and dead-code rules.
`__init__.py` is skipped because it re-exports, and `__future__` imports
are not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schroeter"
TESTS = PACKAGE.parent.parent / "tests"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "from .cubic import chord_third, third_intersection\nchord_third()\n"
    assert unused_imports(source) == ["third_intersection (line 1)"]


def references(sources) -> set[str]:
    """Every name read as an `ast.Name` or an `ast.Attribute` in the sources."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def unreferenced_definitions(source: str, referenced: set[str]) -> list[str]:
    """Top-level functions and classes of `source` that nothing references.

    `_suite_*` functions are exempt: `verify.run_suites` looks them up by name.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(source).body
        if isinstance(node, defs)
        and not node.name.startswith("_suite_")
        and node.name not in referenced
    ]


def test_no_unreferenced_definitions():
    paths = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
    referenced = references(p.read_text(encoding="utf-8") for p in paths)
    dead = {
        path.name: found
        for path in MODULES
        if (found := unreferenced_definitions(path.read_text(encoding="utf-8"), referenced))
    }
    assert dead == {}


def test_guard_sees_an_unreferenced_definition():
    source = "def used():\n    pass\n\n\ndef dead():\n    used()\n"
    assert unreferenced_definitions(source, references([source])) == ["dead (line 5)"]
