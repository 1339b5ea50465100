"""Source hygiene checks read off the syntax tree of each package module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import basecat

MODULES = sorted(
    path for path in Path(basecat.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    """Every name read in the module, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "import os, os.path as osp\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: 'Mapping') -> None:\n"
        "    'Sequence'\n"
    )
    used = _used(tree)
    assert {name for name in _imported(tree) if name not in used} == {"os", "osp", "Sequence"}
