"""The package exports only names that the package itself uses."""

import ast
from pathlib import Path

import gmalg as G

PACKAGE = Path(G.__file__).parent

# Exported for the check of the decomposition theorem on the whole space
# (ROADMAP item 1), which will call it; nothing calls it yet.
AWAITING_A_CALLER = {"is_n_derivation"}


def references(tree) -> set:
    """Names loaded, or read as attributes, outside the def or class of the
    same name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_exported_name_is_referenced_inside_the_package():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= references(ast.parse(path.read_text()))
    assert AWAITING_A_CALLER <= exported
    assert exported - used == AWAITING_A_CALLER
