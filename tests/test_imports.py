"""Every name a library module or test file imports is used in that file.

The package re-exports names from ``__init__.py`` on purpose, so that file
is left out; every other module under ``src/pkeet`` and every file under
``tests`` is parsed with ``ast``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pkeet"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(p.stem for p in TESTS.glob("*.py"))


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


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom numpy import stack, zeros\nzeros(1)\n") == ["os", "stack"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("test_file", TEST_FILES)
def test_no_unused_imports_in_tests(test_file):
    assert unused_imports((TESTS / f"{test_file}.py").read_text()) == []
