"""Every name a library module or test file imports is used in that file,
and every definition of a library module is used somewhere.

The package re-exports names from ``__init__.py`` on purpose, so that file
is left out; every other module under ``src/pkeet`` and every file under
``tests`` is parsed with ``ast``.  A module-level function, class or
constant of ``src/pkeet`` counts as used when a name, attribute or import
in ``src``, ``tests`` or ``perfbench`` refers to it; a method only when an
attribute does, so a function or variable of the same name does not keep
it alive.  An attribute taken from a builtin (``int.from_bytes``), a
literal or a module imported from outside the package (``np.copy``) refers
to nothing of the package, so it does not keep a method alive either.
"""

import ast
import builtins
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


def definitions(source: str) -> list[tuple[str, bool]]:
    """Module-level functions, classes and constants, and the methods of the
    module's classes, each with whether it is a method; dunder names are
    reached implicitly and left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, False))
        if isinstance(node, ast.ClassDef):
            names += [(m.name, True) for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, False) for t in targets if isinstance(t, ast.Name)]
    return [(n, method) for n, method in names if not (n.startswith("__") and n.endswith("__"))]


def references(source: str) -> set[str]:
    """Names read and names imported in ``source``, and attributes taken,
    written both ``name`` and ``.name``; attributes of builtins, literals
    and outside modules are left out."""
    tree = ast.parse(source)
    foreign = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign |= {
                a.asname or a.name.partition(".")[0]
                for a in node.names
                if a.name.partition(".")[0] != "pkeet"
            }
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node.value
            if not isinstance(base, ast.Constant) and not (
                isinstance(base, ast.Name) and base.id in foreign
            ):
                refs |= {node.attr, "." + node.attr}
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
    return refs


def dead_definitions(source: str, refs: set[str]) -> list[str]:
    """Definitions nothing refers to; a method needs an attribute ``.name``."""
    return [name for name, method in definitions(source) if ("." + name if method else name) not in refs]


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


def test_checker_ignores_builtin_and_outside_attributes():
    # A dead method is not kept alive by a builtin's or numpy's attribute of
    # the same name, nor by a function of the same name, only by a use
    # through its class or another object.
    source = (
        "class RingElement:\n"
        "    def from_bytes(cls): pass\n"
        "    def copy(self): pass\n"
        "    def to_bytes(self): pass\n"
        "    def scale(self): pass\n"
        "    def balanced(self): pass\n"
        "def balanced(values, q): pass\n"
    )
    user = (
        "import numpy as np\n"
        "from pkeet.ring import RingElement, balanced\n"
        "int.from_bytes(b'', 'big')\n"
        "np.copy(RingElement)\n"
        "b''.join([elem.to_bytes()])\n"
        "RingElement.scale\n"
        "balanced(np.arange(3), 3)\n"
    )
    assert dead_definitions(source, references(user)) == ["from_bytes", "copy", "balanced"]


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
