"""Import hygiene of the package, checked on its syntax trees: no module
imports a name it never uses, and every exported name resolves."""

import ast
from pathlib import Path

import pytest

import afemflux

SRC = Path(afemflux.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name bound by each import of the module -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """Every name the module reads, string annotations included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                out.add(base.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= used_names(ast.parse(ann.value, mode="eval"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_unused_import_is_found():
    tree = ast.parse("from .mesh import Mesh, MeshError\n"
                     "from dataclasses import field\n"
                     "import numpy as np\n"
                     "def f(m: 'Mesh'):\n"
                     "    return np.zeros(1)\n")
    names = imported_names(tree)
    assert sorted(set(names) - used_names(tree)) == ["MeshError", "field"]


def test_every_exported_name_resolves():
    missing = [name for name in afemflux.__all__
               if not hasattr(afemflux, name)]
    assert not missing
    assert len(set(afemflux.__all__)) == len(afemflux.__all__)
