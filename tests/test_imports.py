"""Every module of the package and of the tests uses each name it imports,
and every top-level definition of the package is used by the package itself.

A stdlib stand-in for a linter's unused-import and dead-code rules.
`__init__.py` is skipped because it re-exports, and `__future__` imports
are not names.  A definition that only the tests use belongs in
`tests/oracles.py`, so references from the tests, from `__init__.py`'s
re-exports or from the definition's own body do not count.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schroeter"
TESTS = PACKAGE.parent.parent / "tests"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    [*MODULES, *TEST_MODULES],
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "from .cubic import chord_third, third_intersection\nchord_third()\n"
    assert unused_imports(source) == ["third_intersection (line 1)"]


def references(nodes) -> set[str]:
    """Every name read as an `ast.Name` or an `ast.Attribute` under the nodes."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions(package: Path) -> dict[str, list[str]]:
    """Per module of `package` (`__init__.py` aside), the top-level functions
    and classes referenced nowhere in those modules outside their own body.

    `_suite_*` functions are exempt: `verify.run_suites` looks them up by name.
    """
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    dead = {}
    for name, tree in trees.items():
        elsewhere = references(other for n, other in trees.items() if n != name)
        found = [
            f"{node.name} (line {node.lineno})"
            for node in tree.body
            if isinstance(node, DEFINITIONS)
            and not node.name.startswith("_suite_")
            and node.name not in elsewhere
            and node.name not in references(n for n in tree.body if n is not node)
        ]
        if found:
            dead[name] = found
    return dead


def test_no_unreferenced_definitions():
    assert unreferenced_definitions(PACKAGE) == {}


def test_guard_sees_an_unreferenced_definition(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "geometry.py").write_text(
        "def used():\n    pass\n\n\n"
        "def oracle():\n    used()\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n"
    )
    (package / "cli.py").write_text("from .geometry import used\n\nused()\n")
    (package / "__init__.py").write_text("from .geometry import oracle, recursive\n")
    (tmp_path / "test_geometry.py").write_text(
        "from pkg.geometry import oracle, recursive\n\noracle()\nrecursive(3)\n"
    )
    assert unreferenced_definitions(package) == {
        "geometry.py": ["oracle (line 5)", "recursive (line 9)"],
    }


def test_oracles_are_not_in_the_package():
    import oracles

    names = [n for n, v in vars(oracles).items() if getattr(v, "__module__", None) == "oracles"]
    modules = ["schroeter", *(f"schroeter.{path.stem}" for path in MODULES)]
    found = [f"{m}.{n}" for m in modules for n in names if hasattr(importlib.import_module(m), n)]
    assert "INFINITY" in names and found == []
