"""Every name a package module imports, every private function or class it
defines at module level, and every private method or stored private
attribute of its classes, is used in that module; every module-level
UPPER_CASE constant is read somewhere in the package or re-exported.

An import statement whose first line carries ``# noqa: F401`` is a
deliberate re-export (the package ``__init__``) and is skipped.  A private
helper whose last caller in its module is gone fails here even when a test
still imports it, and so does a constant whose algorithm was deleted.

Third-party modules enter the package at listed places only: numpy
anywhere, scipy where `THIRD_PARTY` names the module and function.
"""

import ast
import importlib.util
import pathlib
import re
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sphsplines"


def unused_imports(source):
    """Names bound by import statements in ``source`` and never loaded."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_helpers(source):
    """Private module-level functions and classes of ``source`` that no name
    in the module refers to."""
    tree = ast.parse(source)
    defined = {
        node.name: node.lineno for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in defined.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom a import b  # noqa: F401\nsep\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# (module, function, third-party module): where each may be imported; a
# function of None allows every place in every module
THIRD_PARTY = {
    (None, None, "numpy"),
    ("gram", "", "scipy.sparse"),
    ("gram", "", "scipy.sparse._sparsetools"),
    ("gram", "spectral_norm", "scipy.sparse.linalg"),
}


def _scoped_imports(node, scope=""):
    """(scope, statement) of each import under ``node``: scope is the dotted
    name of the function or class it sits in, or "" at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_imports(child, scope + "." + child.name if scope else child.name)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        else:
            yield from _scoped_imports(child, scope)


def _is_module(name):
    """Whether the dotted ``name`` is an importable module (its parents load)."""
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def third_party_imports(source):
    """Sorted (scope, module) of the imports in ``source`` from outside the
    standard library and the package: ``import m`` loads m, and ``from m
    import a`` loads m.a when that is a module, and otherwise m."""
    found = set()
    for scope, node in _scoped_imports(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level == 0:
            names = [node.module + "." + alias.name if _is_module(node.module + "." + alias.name)
                     else node.module for alias in node.names]
        else:
            names = []
        found.update((scope, name) for name in names
                     if name.split(".")[0] not in sys.stdlib_module_names)
    return sorted(found)


def test_checker_lists_third_party_imports_by_scope():
    source = ("import json\nimport numpy as np\nfrom scipy import sparse\n"
              "from . import gram\n\n\ndef f():\n    from scipy.sparse.linalg import svds\n"
              "    import os.path\n\n\nclass A:\n    def g(self):\n"
              "        from scipy.sparse import _sparsetools\n")
    assert third_party_imports(source) == [
        ("", "numpy"), ("", "scipy.sparse"), ("A.g", "scipy.sparse._sparsetools"),
        ("f", "scipy.sparse.linalg")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_third_party_modules_enter_only_where_listed(path):
    # the package runs on numpy and scipy alone, and each scipy module
    # loads at one named place; importlib, which would hide a module's
    # name from this check, is used nowhere
    text = path.read_text()
    assert "importlib" not in text
    assert [(scope, name) for scope, name in third_party_imports(text)
            if (None, None, name) not in THIRD_PARTY
            and (path.stem, scope, name) not in THIRD_PARTY] == []


def test_checker_flags_an_unused_private_helper():
    source = ("def _dead():\n    pass\n\n\ndef _live():\n    pass\n\n\n"
              "class _Gone:\n    pass\n\n\ndef __getattr__(name):\n    pass\n\n\n"
              "def public():\n    return _live()\n")
    assert unused_private_helpers(source) == [(1, "_dead"), (9, "_Gone")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_helpers(path):
    assert unused_private_helpers(path.read_text()) == []


def unused_private_members(source):
    """Private methods of the classes of ``source`` that no attribute in the
    module names, and private attributes it stores (``obj._x = ...``) but
    never reads."""
    tree = ast.parse(source)
    private = lambda name: name.startswith("_") and not name.startswith("__")
    defined = {
        node.name: node.lineno for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and private(node.name)
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            if isinstance(node.ctx, ast.Store):
                defined.setdefault(node.attr, node.lineno)
            else:
                read.add(node.attr)
    return sorted((line, name) for name, line in defined.items() if name not in read)


def test_checker_flags_an_unused_private_member():
    source = ("class A:\n    def __init__(self):\n        self._read = {}\n"
              "        self._unread = 1\n        self.public = 2\n\n"
              "    def _dead(self):\n        pass\n\n"
              "    def _live(self):\n        self._read[0] = 1\n\n"
              "    def __call__(self):\n        return self._live()\n")
    assert unused_private_members(source) == [(4, "_unread"), (7, "_dead")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_members(path):
    assert unused_private_members(path.read_text()) == []


def unused_constants(sources):
    """``(module, line, name)`` of the module-level UPPER_CASE constants in
    ``sources`` (module name -> text) that no module loads, as a name or an
    attribute, and that ``__init__`` does not import."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = [
        (module, node.lineno, target.id)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
    ]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    if "__init__" in trees:
        read.update(alias.name for node in ast.walk(trees["__init__"])
                    if isinstance(node, ast.ImportFrom) for alias in node.names)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_checker_flags_an_unused_constant():
    sources = {
        "a": "DEAD = 1\nLIVE = 2\nSHOWN = 3\nUSED_ELSEWHERE = 4\nlower = 5\n"
             "def f():\n    return LIVE\n",
        "b": "from . import a\nx = a.USED_ELSEWHERE\n",
        "__init__": "from .a import SHOWN  # noqa: F401\n",
    }
    assert unused_constants(sources) == [("a", 1, "DEAD")]


def test_no_unused_constants():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unused_constants(sources) == []


TESTS = pathlib.Path(__file__).resolve().parent


def private_names_reached(source):
    """``(line, name)`` of each private name of the package that ``source``
    imports (``from sphsplines.m import _name``) or reads as an attribute of
    a package module (``m._name``, ``sphsplines.m._name``)."""
    tree = ast.parse(source)
    private = lambda name: name.startswith("_") and not name.startswith("__")
    modules, hits = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0]
                           for alias in node.names
                           if alias.name.split(".")[0] == "sphsplines")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sphsplines":
            for alias in node.names:
                if private(alias.name):
                    hits.append((node.lineno, alias.name))
                elif node.module == "sphsplines" and (SRC / (alias.name + ".py")).exists():
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                hits.append((node.lineno, node.attr))
    return sorted(hits)


def test_checker_flags_a_private_name_reached():
    source = ("import sphsplines.pipeline as pipeline\nfrom sphsplines import gram, sphere\n"
              "from sphsplines.solvers import _step, pds_solve\nimport sphsplines\n"
              "pipeline._load(gram.spectral_norm, sphsplines.cli._main, sphsplines.__version__)\n"
              "obj._private, other._x\n")
    assert private_names_reached(source) == [(3, "_step"), (5, "_load"), (5, "_main")]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_tests_reach_no_private_name(path):
    # tests pin the package's public behaviour, so a private helper can be
    # renamed, merged or deleted without editing them
    assert private_names_reached(path.read_text()) == []
