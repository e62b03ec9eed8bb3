"""Every name a library module or test file imports is used in that file,
and every definition of a library module is used somewhere.

The package re-exports names from ``__init__.py`` on purpose, so that file
is left out; every other module under ``src/pkeet`` and every file under
``tests`` is parsed with ``ast``.  A module-level function, class or
constant, or a method, of ``src/pkeet`` counts as used when a name,
attribute or import in ``src``, ``tests`` or ``perfbench`` refers to it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pkeet"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(p.stem for p in TESTS.glob("*.py"))
PERFBENCH = SRC.parent.parent / "perfbench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants, and the methods of the
    module's classes; dunder names are reached implicitly and left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def references(source: str) -> set[str]:
    """Names read, attributes taken and names imported in ``source``."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
    return refs


def dead_definitions(source: str, refs: set[str]) -> list[str]:
    return [name for name in definitions(source) if name not in refs]


@pytest.fixture(scope="module")
def all_references():
    files = [*SRC.glob("*.py"), *TESTS.glob("*.py"), *PERFBENCH.glob("*.py")]
    return set().union(*(references(p.read_text()) for p in files))


def test_checker_flags_a_dead_definition():
    source = (
        "LIMIT = 3\n_CACHE: dict = {}\n"
        "def used(): return LIMIT\n"
        "def unused(): pass\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def read(self): return _CACHE\n"
        "    def dead(self): pass\n"
    )
    refs = references(source) | references("from m import used\nBox().read()\n")
    assert dead_definitions(source, refs) == ["unused", "dead"]


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_definitions(module, all_references):
    assert dead_definitions((SRC / f"{module}.py").read_text(), all_references) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom numpy import stack, zeros\nzeros(1)\n") == ["os", "stack"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("test_file", TEST_FILES)
def test_no_unused_imports_in_tests(test_file):
    assert unused_imports((TESTS / f"{test_file}.py").read_text()) == []
