"""Import hygiene of the package modules, by a stdlib `ast` scan.

Every import sits at the top of its module, and every name a module imports
is used in it.  `__init__.py` is skipped: its imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

import rayclass

MODULES = sorted(
    p for p in Path(rayclass.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{inner.lineno} in {func.name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(func)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        name: stmt.lineno
        for stmt in tree.body
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
        for name in _bound_names(stmt)
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)
    assert unused == []
