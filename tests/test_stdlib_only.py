"""The package is stdlib-only: every absolute import in ``src/loopschur/`` names
a standard-library module, and ``pyproject.toml`` declares no dependencies."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "loopschur").rglob("*.py"))


def non_stdlib_imports(source: str) -> list[str]:
    """The absolute imports of ``source`` whose top-level name is not a
    standard-library module; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_the_guard_sees_third_party_imports():
    source = ("from __future__ import annotations\nimport numpy.linalg, json\n"
              "from . import shapes\nfrom .polyring import Monomial\n"
              "def f():\n    from sympy import Rational\n")
    assert non_stdlib_imports(source) == ["numpy.linalg", "sympy"]


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"__init__.py", "polyring.py", "tableaux.py",
                                               "involutions.py", "verify.py", "cli.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(module):
    assert non_stdlib_imports(module.read_text(encoding="utf-8")) == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
