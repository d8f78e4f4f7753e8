"""Hygiene of the package, checked on its syntax trees: no module imports
a name it never uses, no private module-level name goes unread, every
exported name resolves, every private name the docs put in backticks is
defined, no `np.einsum` takes more than two operands, every table a
cached function returns, or a mesh or its finite element space exposes,
is read-only, and every attribute a class stores on self is read in the
package, its tests, demos or benchmark.  In a fresh interpreter, a run
imports no module the package does not need."""

import ast
import dataclasses
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import afemflux
from afemflux.galerkin import FeSpace
from afemflux.mesh import Mesh, bisect, lshape
from afemflux.quadrature import edge_rule, triangle_rule

SRC = Path(afemflux.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
README = SRC.parents[1] / "README.md"


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


def defined_names(node):
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def read_names(node):
    """Names read under a node: loaded names, attributes, imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def unread_private_names(trees):
    """(module, name) of each module-level name with one leading underscore
    that no top-level statement but its own definition reads."""
    stmts = [(module, node) for module, tree in trees.items()
             for node in tree.body]
    reads = [read_names(node) for _, node in stmts]
    return [(module, name) for i, (module, node) in enumerate(stmts)
            for name in defined_names(node)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    unread = unread_private_names(trees)
    assert not unread, f"defined but never read: {unread}"


def test_unread_private_name_is_found():
    trees = {"a.py": ast.parse("__all__ = []\n"
                               "_A, (_B, c) = 1, (2, 3)\n"
                               "def _f():\n"
                               "    return _f() + _A\n"
                               "class _K:\n"
                               "    _unread_in_class = 0\n"
                               "def _g():\n"
                               "    _local = 4\n"
                               "_h: int = 5\n"),
             "b.py": ast.parse("from .a import _g\n"
                               "from . import a\n"
                               "x = a._h\n")}
    assert unread_private_names(trees) == [("a.py", "_B"), ("a.py", "_f"),
                                           ("a.py", "_K")]


def stored_attributes(tree):
    """(class, attribute) of each attribute a class stores on self."""
    return {(cls.name, n.attr) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for n in ast.walk(cls)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"}


def unread_attributes(sources, readers):
    """The stored_attributes of the trees sources that no tree of readers
    reads as an attribute, sorted."""
    read = {n.attr for tree in readers for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(pair for tree in sources for pair in stored_attributes(tree)
                  if pair[1] not in read)


def test_every_stored_attribute_is_read():
    root = SRC.parents[1]
    sources = [ast.parse(p.read_text(), str(p))
               for p in sorted(SRC.glob("*.py"))]
    readers = [ast.parse(p.read_text(), str(p))
               for d in ("src", "tests", "demos", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    unread = unread_attributes(sources, readers)
    assert not unread, f"stored on self but never read: {unread}"


def test_unread_attribute_is_found():
    source = ast.parse("class K:\n"
                       "    def __init__(self, other):\n"
                       "        self.a = 1\n"
                       "        self.b: int = 2\n"
                       "        self.c, self.d = 3, 4\n"
                       "        other.e = 5\n"
                       "    def f(self):\n"
                       "        self.g += 1\n"
                       "        return self.a\n")
    reader = ast.parse("k = K(None)\n"
                       "print(k.c)\n"
                       "k.d = 6\n")
    assert unread_attributes([source], [source, reader]) == [
        ("K", "b"), ("K", "d"), ("K", "g")]


def test_every_exported_name_resolves():
    missing = [name for name in afemflux.__all__
               if not hasattr(afemflux, name)]
    assert not missing
    assert len(set(afemflux.__all__)) == len(afemflux.__all__)


def bound_names(tree):
    """Every name a module binds: definitions, assignment targets, stored
    attributes, arguments and import aliases."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            out.add(n.attr)
        elif isinstance(n, ast.arg):
            out.add(n.arg)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name)
    return out


def prose(source):
    """The comments and string literals, docstrings among them, of a
    module's source."""
    return [tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline)
        if tok.type in (tokenize.COMMENT, tokenize.STRING)]


def backticked_private_names(text):
    """Names with a leading underscore inside backticks, also after a dot
    as in `mesh._name`."""
    return {name for span in re.findall(r"`([^`\n]+)`", text)
            for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)}


def test_every_backticked_private_name_is_defined():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    defined = set().union(*(bound_names(ast.parse(text))
                            for text in sources.values()))
    texts = {name: "\n".join(prose(text)) for name, text in sources.items()}
    texts["README.md"] = README.read_text()
    missing = {name: sorted(backticked_private_names(text) - defined)
               for name, text in texts.items()}
    missing = {name: names for name, names in missing.items() if names}
    assert not missing, f"docs name undefined private names: {missing}"


def test_undefined_backticked_name_is_found():
    source = ("def _solve(_a):\n"
              "    # `_solve` calls `_gone` with `x._a`, `__init__` and\n"
              "    return '`_b` and `mesh._c`'\n")
    text = "\n".join(prose(source))
    assert backticked_private_names(text) - bound_names(ast.parse(source)) \
        == {"_gone", "_b", "_c"}


def cached_functions(tree):
    """Names of the functions decorated by `functools.lru_cache` or
    `functools.cache`, called or bare, by name or through the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) \
                    else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    out.append(node.name)
    return out


def arrays_in(value):
    """Every ndarray in value, looking into dicts (keys and values),
    tuples, lists and dataclass fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif not isinstance(value, (tuple, list)):
        return []
    return [a for item in value for a in arrays_in(item)]


# arguments each cached function is called with; a cached function that is
# missing here fails the test, so that its tables get checked
CACHED_CALLS = {
    ("quadrature", "triangle_rule"): [(0,), (12,), (31,)],
    ("quadrature", "edge_rule"): [(0,), (10,), (31,)],
    ("galerkin", "reference_element"): [(1,), (4,)],
    ("galerkin", "edge_points"): [(edge_rule(4),), (edge_rule(10),)],
    ("equilibration", "rt_divergence_matrix"): [(1,), (4,)],
}


def test_cached_tables_are_read_only():
    found = {(p.stem, name) for p in MODULES
             for name in cached_functions(ast.parse(p.read_text(), str(p)))}
    assert found <= set(CACHED_CALLS), \
        f"cached functions without arguments in CACHED_CALLS: " \
        f"{sorted(found - set(CACHED_CALLS))}"
    writable = []
    for (module, name), calls in sorted(CACHED_CALLS.items()):
        func = getattr(importlib.import_module(f"afemflux.{module}"), name)
        for args in calls:
            arrays = arrays_in(func(*args))
            assert arrays, f"{name}{args} returns no array"
            if any(a.flags.writeable for a in arrays):
                writable.append(f"{name}{args}")
    assert not writable, f"writable cached arrays: {writable}"


def test_one_edge_rule_per_degree():
    # the edge tables read the space's own rule: an adaptive P2 loop
    # builds one edge rule, not a second one under its exact degree
    triangle_rule.cache_clear()
    edge_rule.cache_clear()
    afemflux.run(afemflux.AfemConfig(problem="square_poly", degree=2,
                                     max_dofs=200))
    assert edge_rule.cache_info().misses == 1


def test_cached_function_and_nested_array_are_found():
    tree = ast.parse("import functools\n"
                     "from functools import cache, lru_cache\n"
                     "@lru_cache(maxsize=None)\n"
                     "def a(k): pass\n"
                     "@functools.lru_cache\n"
                     "def b(k): pass\n"
                     "@cache\n"
                     "def c(k): pass\n"
                     "@staticmethod\n"
                     "def d(k): pass\n")
    assert cached_functions(tree) == ["a", "b", "c"]

    @dataclasses.dataclass
    class Table:
        rows: tuple

    inner = np.zeros(2)
    found = arrays_in({"t": Table(rows=(1, [inner]))})
    assert len(found) == 1 and found[0] is inner


def test_mesh_and_space_tables_are_read_only():
    mesh = bisect(bisect(lshape(), [0, 5], 2), [3], 1)
    cached = [name for name, attr in vars(Mesh).items()
              if isinstance(attr, cached_property)]
    assert {"areas", "edges", "link", "shape_classes"} <= set(cached)
    for name in cached:
        getattr(mesh, name)
    owners = {"mesh": mesh, "space": FeSpace(mesh, 3)}
    link, depth = mesh.link, 0
    while link is not None:
        owners[f"link {depth}"], link, depth = link, link.source, depth + 1
    assert depth == 3  # one link per bisect call, and the root's
    writable = [f"{owner}.{name}" for owner, obj in owners.items()
                for name, value in vars(obj).items()
                if any(a.flags.writeable for a in arrays_in(value))]
    assert not writable, f"writable arrays: {writable}"
    # bisection hands its edge tables over: each owns its data, where a
    # view would keep a whole working buffer alive, uncounted
    assert "_edge_data" in vars(mesh)
    assert all(a.base is None for a in mesh._edge_data)
    refused = []
    for name, value in list(vars(mesh).items()):
        with pytest.raises(AttributeError, match=repr(name)):
            setattr(mesh, name, value)
        refused.append(name)
    assert {"points", "triangles", "source", *cached} <= set(refused)


def wide_einsums(tree):
    """Line of each `np.einsum` call with more than two array operands, or
    with operands passed by unpacking, which may be more."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and (len(node.args) > 3
                 or any(isinstance(a, ast.Starred) for a in node.args))]


def test_no_einsum_with_three_operands():
    """A weighted sum is one BLAS product: an einsum of three or more
    operands runs numpy's generic loop, or searches a path on every call."""
    found = [f"{p.name}:{line}" for p in MODULES
             for line in wide_einsums(ast.parse(p.read_text(), str(p)))]
    assert not found, f"np.einsum with more than two operands: {found}"


def test_three_operand_einsum_is_found():
    tree = ast.parse("import numpy as np\n"
                     "a = np.einsum('q,tq->t', w, x)\n"
                     "b = np.einsum('q,tq,t->t', w, x, area)\n"
                     "c = np.einsum('q,tq,t->', w, x, area, optimize=True)\n"
                     "d = np.einsum(*ops)\n"
                     "e = other.einsum('q,tq,t->t', w, x, area)\n")
    assert wide_einsums(tree) == [3, 4, 5]


def test_run_does_not_import_scipy_special():
    """The Gauss rules come from the package's own tables, so neither the
    import nor a small adaptive run pays for `scipy.special`; nor for
    `scipy.spatial`, which only `conformity_check` imports, on its call."""
    code = ("import sys\n"
            "import afemflux\n"
            "afemflux.run(afemflux.AfemConfig(degree=2, max_dofs=100))\n"
            "print(*sorted(m for m in sys.modules if m.startswith('scipy.')))\n")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, timeout=300,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    loaded = out.stdout.split()
    assert "scipy.sparse.linalg" in loaded, "the run did not solve"
    unwanted = ("scipy.special", "scipy.spatial")
    assert not [m for m in loaded if m.startswith(unwanted)], loaded
