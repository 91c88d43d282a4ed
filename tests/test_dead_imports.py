"""Every module of the package uses each name it imports.

A static check over the source with ast: a name bound by an import must
appear as a name somewhere else in the module, or in its __all__. The
package __init__ exists to re-export, so it is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import locdim

PACKAGE = Path(locdim.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    dead = [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]
    assert not dead, f"{path.name} imports names it never uses: {', '.join(dead)}"


def test_check_sees_a_dead_import():
    tree = ast.parse("import os\nfrom .graphs import Graph, build\n\nbuild(1, [])\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "Graph"}
