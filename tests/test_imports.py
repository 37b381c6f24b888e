"""Every module of the package and of the tests uses each name it imports,
no module of the package imports `dataclasses` or `inspect` or a private
name of `engine`, the package root loads no module of the package, each
command loads exactly the package modules it runs, every top-level
definition, method and property of the package is used by the package
itself, and every function of the package reads each of its parameters.

A stdlib stand-in for a linter's unused-import and dead-code rules.
`__future__` imports are not names.  A definition that only the tests use
belongs in `tests/oracles.py`, so references from the tests, from an
`__init__.py` or from the definition's own body do not count.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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
    [PACKAGE / "__init__.py", *MODULES, *TEST_MODULES],
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "from .cubic import chord_third, third_intersection\nchord_third()\n"
    assert unused_imports(source) == ["third_intersection (line 1)"]


# Modules whose import costs every command start-up time: `dataclasses`
# imports `inspect`, and builds each class's methods when it is defined.
SLOW_IMPORTS = {"dataclasses", "inspect"}


def slow_imports(source: str) -> list[str]:
    """The imports of SLOW_IMPORTS in the source, as "module (line n)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules if m.split(".")[0] in SLOW_IMPORTS]
    return found


@pytest.mark.parametrize("path", [PACKAGE / "__init__.py", *MODULES], ids=lambda p: p.name)
def test_no_slow_imports(path):
    assert slow_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_slow_import():
    assert slow_imports("from dataclasses import dataclass\n") == ["dataclasses (line 1)"]
    assert slow_imports("import json, inspect\nfrom .cubic import evaluate\n") == ["inspect (line 1)"]


def fresh_modules(code, *args, cwd) -> set[str]:
    """The package submodules loaded by a fresh interpreter that runs `code`
    with the arguments `args` in the directory `cwd`, then prints them."""
    code = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        check=True, env=env, cwd=cwd,
    )
    return {m for m in json.loads(out.stdout.splitlines()[-1]) if m.startswith("schroeter.")}


def loaded_modules(argv, cwd) -> set[str]:
    """The package modules loaded by a fresh interpreter that runs the
    command `argv` in the directory `cwd`."""
    code = "from schroeter.cli import main\nassert main(json.loads(sys.argv[1])) == 0"
    return fresh_modules(code, json.dumps(argv), cwd=cwd)


SEEDS = PACKAGE.parent.parent / "seeds"
# The modules that `construct` on a seed without a curve and `verify
# --report` load; the other commands load these and the modules they run.
CORE = {
    f"schroeter.{m}" for m in ("cli", "cubic", "engine", "errors", "projective", "record", "serialize")
}


def test_root_loads_no_submodule(tmp_path):
    assert fresh_modules("import schroeter", cwd=tmp_path) == set()


def test_construct_loads_neither_verify_nor_svgplot(tmp_path):
    argv = ["construct", "--seed", str(SEEDS / "frame.json"), "--max-points", "12", "--out", "run.json"]
    assert loaded_modules(argv, tmp_path) == CORE


def test_verify_report_loads_what_construct_loads(tmp_path):
    argv = ["construct", "--seed", str(SEEDS / "torsion.json"), "--out", "run.json"]
    assert loaded_modules(argv, tmp_path) == {*CORE, "schroeter.weierstrass"}
    assert loaded_modules(["verify", "--report", "run.json"], tmp_path) == CORE


def test_plot_loads_no_verify(tmp_path):
    loaded_modules(["construct", "--seed", str(SEEDS / "torsion.json"), "--out", "run.json"], tmp_path)
    loaded = loaded_modules(["plot", "--report", "run.json", "--out", "run.svg"], tmp_path)
    assert loaded == {*CORE, "schroeter.svgplot"}


def test_verify_loads_no_svgplot(tmp_path):
    loaded = loaded_modules(["verify", "--seed", str(SEEDS / "torsion.json")], tmp_path)
    verify_only = {f"schroeter.{m}" for m in ("verify", "checks", "involution", "weierstrass")}
    assert loaded == {*CORE, *verify_only}


def private_engine_imports(source: str) -> list[str]:
    """The names starting with "_" that the source imports from the
    package's `engine`, as "name (line n)"."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "engine"
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "engine.py"], ids=lambda p: p.name)
def test_no_private_engine_imports(path):
    """Only `engine` decides what its private names mean: the replay of a
    run report, which needs them, is engine's own."""
    assert private_engine_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_private_engine_import():
    source = "from .engine import _KAPPA, ConstructionState, _hnf\nfrom .cubic import _private\n"
    assert private_engine_imports(source) == ["_KAPPA (line 1)", "_hnf (line 1)"]


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


def parse_modules(package: Path) -> dict[str, ast.Module]:
    """The syntax tree of each module of `package` but `__init__.py`."""
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }


def unreferenced_definitions(package: Path) -> dict[str, list[str]]:
    """Per module of `package` (`__init__.py` aside), the top-level functions
    and classes referenced nowhere in those modules outside their own body."""
    trees = parse_modules(package)
    dead = {}
    for name, tree in trees.items():
        elsewhere = references(other for n, other in trees.items() if n != name)
        found = [
            f"{node.name} (line {node.lineno})"
            for node in tree.body
            if isinstance(node, DEFINITIONS)
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


def attribute_reads(roots, skip) -> set[str]:
    """Every attribute name read under the nodes, outside the node `skip`."""
    names, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node is not skip:
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    return names


# Members that code outside the package calls: argparse calls the parser's
# `error`, and the benchmark's tracer reads `provenance` off a run's state.
CALLED_FROM_OUTSIDE = {"_Parser.error", "ConstructionState.provenance"}


def unread_members(package: Path, exempt=CALLED_FROM_OUTSIDE) -> dict[str, list[str]]:
    """Per module of `package` (`__init__.py` aside), the methods and
    properties of its top-level classes whose name no attribute read in
    those modules names, outside their own body.  Dunders are exempt, since
    Python calls them, and so are the "Class.member" names in `exempt`."""
    trees = parse_modules(package)
    dead = {}
    for name, tree in trees.items():
        found = [
            f"{cls.name}.{node.name} (line {node.lineno})"
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and f"{cls.name}.{node.name}" not in exempt
            and node.name not in attribute_reads(trees.values(), skip=node)
        ]
        if found:
            dead[name] = found
    return dead


def test_no_unread_members():
    assert unread_members(PACKAGE) == {}


def test_guard_sees_an_unread_member(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "geometry.py").write_text(
        "class Point:\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "    @property\n    def norm(self):\n        return 0\n\n"
        "    def oracle(self):\n        return self.norm\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    def hook(self):\n        pass\n"
    )
    (package / "cli.py").write_text("from .geometry import Point\n\nPoint()\n")
    (package / "__init__.py").write_text("from .geometry import Point\n\nPoint().oracle()\n")
    assert unread_members(package, exempt={"Point.hook"}) == {
        "geometry.py": ["Point.oracle (line 9)", "Point.recursive (line 12)"],
    }


# verify's suites share one signature, so that `run_suites` calls each alike,
# and a suite may leave some of its arguments unread.
SHARED_SIGNATURE = "_suite_"


def unread_parameters(source: str) -> list[str]:
    """The parameters that their function's body never reads, as
    "function(parameter) (line n)": a parameter that changes nothing is a
    knob that does nothing."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith(SHARED_SIGNATURE):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [f"{node.name}({p.arg}) (line {node.lineno})" for p in params if p.arg not in read]
    return found


@pytest.mark.parametrize("path", [PACKAGE / "__init__.py", *MODULES], ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unread_parameter():
    source = (
        "def run(seed, max_points=512, *, scheduler_seed=None, **options):\n"
        "    return [seed][:max_points]\n\n\n"
        "def _suite_lines(state, report, cubic, meet):\n"
        "    return state\n\n\n"
        "class Canvas:\n"
        "    def circle(self, x, y):\n"
        "        return lambda: x + y\n"
    )
    assert unread_parameters(source) == [
        "run(scheduler_seed) (line 1)", "run(options) (line 1)", "circle(self) (line 10)",
    ]


def test_oracles_are_not_in_the_package():
    import oracles

    names = [n for n, v in vars(oracles).items() if getattr(v, "__module__", None) == "oracles"]
    modules = ["schroeter", *(f"schroeter.{path.stem}" for path in MODULES)]
    found = [f"{m}.{n}" for m in modules for n in names if hasattr(importlib.import_module(m), n)]
    assert "INFINITY" in names and found == []
