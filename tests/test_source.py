"""Static checks of the package source with the standard library's `ast`:
no import is left unused, no private module-level name is left
unreferenced, as happens when the code that used it goes, and every cap is
read by some module other than the one that declares it."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gmdlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name read in `tree`."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imports(tree: ast.Module):
    """(line, bound name) of each import statement at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _loaded_names(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in _imports(tree) if name not in used]
    assert unused == []


def _module_level_private_names(tree: ast.Module):
    """(line, name) of each private, not dunder, name a module defines at
    its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_module_level_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [f"{name}:{line} {private}" for name, tree in trees.items()
                    for line, private in _module_level_private_names(tree)
                    if private not in referenced]
    assert unreferenced == []


def test_every_cap_is_read_outside_caps():
    # a cap that no module reads bounds nothing
    from gmdlab.caps import Caps

    read = set()
    for path in MODULES:
        if path.name != "caps.py":
            read |= {node.attr for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)}
    unread = [f.name for f in fields(Caps) if f.name not in read]
    assert unread == []
