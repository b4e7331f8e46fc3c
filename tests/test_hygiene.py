"""Import hygiene of the package modules, by a stdlib `ast` scan.

Every import sits at the top of its module, and every name a module imports
is used in it.  `__init__.py` is skipped: its imports are the re-exports.
Every module-level private name is used somewhere in the package, every
public function and class is used there or exported, and `rayclass.__all__`
lists exactly the names `__init__.py` re-exports.  Only the transfer-props
corpus builds the stored (Z/m)^x table, only `groups` constructs a `UnitGroup`
or walks a member set with `require_subgroup`, only `classfield` constructs an
`IdealGroupH`, no other group has labels, and only `verify._fork_map` forks.
`symbols` takes nothing from `arith` but the prime check.  No module reads a
private attribute of `random.Random`.
"""

import ast
import random
from pathlib import Path

import pytest

import rayclass
from rayclass.groups import FiniteGroup

PACKAGE = sorted(Path(rayclass.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def _package_trees_and_loaded_names() -> tuple[dict[str, ast.Module], set[str]]:
    """Each package module's tree, and every name any of them loads or reads as an attribute."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return trees, used


def test_every_module_level_private_name_is_used():
    trees, used = _package_trees_and_loaded_names()
    dead = sorted(
        f"{name}:{stmt.lineno} {defined}"
        for name, tree in trees.items()
        for stmt in tree.body
        for defined in _defined_names(stmt)
        if defined.startswith("_") and not defined.startswith("__") and defined not in used
    )
    assert dead == []


# Public names no package module calls, kept only because bench/tracer.TRACED wraps
# them by name; none is left, and a name listed here goes when the tracer drops it.
UNCALLED_BUT_TRACED: set[str] = set()


def test_every_public_function_and_class_is_used_or_exported():
    trees, used = _package_trees_and_loaded_names()
    dead = sorted(
        f"{name} {stmt.name}"
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in used
        and stmt.name not in rayclass.__all__
    )
    assert dead == sorted(UNCALLED_BUT_TRACED)


def test_all_lists_exactly_the_reexported_names():
    init = next(p for p in PACKAGE if p.name == "__init__.py")
    tree = ast.parse(init.read_text(), filename=str(init))
    imported = sorted(
        name for stmt in tree.body if isinstance(stmt, ast.ImportFrom) for name in _bound_names(stmt)
    )
    assert sorted(rayclass.__all__) == imported
    missing = [name for name in rayclass.__all__ if not hasattr(rayclass, name)]
    assert missing == []


def _calls_outside(function: str, callers: set[str]) -> list[str]:
    """module:line of each call of `function` in a package module not named in callers."""
    return sorted(
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name not in callers
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and function in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


# The transfer-props corpus reads each small table so often that computed
# products slowed it by a fifth; everything else takes groups.unit_group, which
# stores no products.
TABLE_UNIT_GROUP_USERS = {"verify.py"}


def test_only_the_corpus_builds_the_stored_unit_group_table():
    assert _calls_outside("group_from_unit_residues", TABLE_UNIT_GROUP_USERS) == []


# `groups` builds each UnitGroup from one `_unit_residues(m)`, so its labels, its
# residue -> id dict and its modulus always agree; `splitting` reads m from it alone.
UNIT_GROUP_BUILDERS = {"groups.py"}


def test_only_groups_constructs_a_unit_group():
    assert _calls_outside("UnitGroup", UNIT_GROUP_BUILDERS) == []


def test_only_unit_groups_have_labels():
    assert [name for name in ("labels", "label_of", "id_of") if hasattr(FiniteGroup, name)] == []


# An ideal group reads m0 from its parent (Z/m0)^x, and `classfield._ideal_group`, the one
# place that builds one, validates it.
IDEAL_GROUP_BUILDERS = {"classfield.py"}


def test_only_classfield_constructs_an_ideal_group():
    assert _calls_outside("IdealGroupH", IDEAL_GROUP_BUILDERS) == []


# Every subgroup outside `groups` is a `groups.Subgroup` (ideal groups included),
# which checks itself with `Subgroup.validate`.
REQUIRE_SUBGROUP_USERS = {"groups.py"}


def test_only_groups_calls_require_subgroup():
    assert _calls_outside("require_subgroup", REQUIRE_SUBGROUP_USERS) == []


# A forked child must exit without returning into its caller, and its parent must wait
# for it on every path; `verify._fork_map` is the one place that sees to both.
FORK_CALLERS = {"verify.py _fork_map"}


def test_only_fork_map_forks():
    found = set()
    for path in MODULES:
        stack = [(ast.parse(path.read_text(), filename=str(path)), "<module>")]
        while stack:
            node, where = stack.pop()
            if isinstance(node, ast.Call) and "fork" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                found.add(f"{path.name} {where}")
            for child in ast.iter_child_nodes(node):
                inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                stack.append((child, child.name if inner else where))
    assert found == FORK_CALLERS


def test_symbols_takes_only_the_prime_check_from_arith():
    # The Legendre routes must stay independent of orders and factorizations,
    # so that no mult_order or factorize route can stand in for a count.
    path = next(p for p in MODULES if p.name == "symbols.py")
    imported = [
        f"{stmt.module}.{alias.name}" if isinstance(stmt, ast.ImportFrom) else alias.name
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        for alias in stmt.names
    ]
    assert [name for name in imported if "arith" in name] == ["arith.require_odd_prime"]


# Seeded draws go through Random's public methods; its private helpers may change between releases.
RANDOM_PRIVATE = {name for name in dir(random.Random) if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_attribute_of_random_is_read(path):
    assert "_randbelow" in RANDOM_PRIVATE
    found = sorted(
        f"{path.name}:{node.lineno} {name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (getattr(node, "attr", None), getattr(node, "value", None))
        if isinstance(name, str) and name in RANDOM_PRIVATE
    )
    assert found == []
