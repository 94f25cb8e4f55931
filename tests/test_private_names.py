"""Every private top-level function, class and assigned name in ``src/loopschur/``
is read somewhere in the package outside its own definition, so a helper that
nothing uses any more does not linger."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "loopschur").glob("*.py"))


def defined_names(statement: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def read_names(statement: ast.stmt) -> set[str]:
    """The names and attributes a statement reads."""
    return ({node.id for node in ast.walk(statement)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)})


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private top-level name of ``sources`` (module
    name to source text) that no other top-level statement of any of them reads."""
    statements = [(module, statement) for module, source in sources.items()
                  for statement in ast.parse(source).body]
    unused = []
    for module, statement in statements:
        for name in defined_names(statement):
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in read_names(other) for _, other in statements
                                if other is not statement)):
                unused.append(f"{module}.{name}")
    return unused


def test_the_scan_sees_an_unused_helper():
    sources = {
        "a": "_used = 1\n_unused = 2\ndef _recursive(x):\n    return _recursive(x)\n"
             "class _Kept:\n    pass\ndef public():\n    return _used\n",
        "b": "from .a import _Kept\nx: _Kept = None\n",
    }
    assert unused_private_names(sources) == ["a._unused", "a._recursive"]


def test_every_private_name_is_used_in_the_package():
    assert len(MODULES) >= 6
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused_private_names(sources) == []
