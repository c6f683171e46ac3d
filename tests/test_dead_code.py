"""Dead-code guard: every top-level function and class in the package, and
every method of a top-level class that is not a dunder, is referenced
somewhere in the package other than its own body; every defaulted
parameter of a function or method that __init__ does not export is passed
by some call in the package; and every name a module imports is read in
that module (__init__ re-exports and __future__ imports aside)."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "schinzelpoly"

# test oracles kept in the package although only the tests call them
ALLOWED_UNREFERENCED = {"brute_force_factor"}

# (module, function, parameter) of defaulted parameters that no call in the
# package passes: the console entry reads sys.argv, and the tests give the
# brute-force oracle its budget
ALLOWED_UNPASSED = {("cli.py", "main", "argv"), ("factor.py", "brute_force_factor", "budget")}


def _references(node):
    """Count of each name loaded, attribute read or name imported in node."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            counts.update(alias.name for alias in sub.names)
    return counts


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(label, node) of each top-level def and class, labelled by name, and
    of each non-dunder method of a top-level class, labelled Class.method.
    A method counts as referenced by any use of its name, whatever the
    receiver."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def unreferenced_definitions(src=SRC):
    """(module, label) of each definition that nothing in src references
    outside its own body."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    unreferenced = []
    for module, tree in trees.items():
        for label, node in _definitions(tree):
            if total[node.name] == _references(node)[node.name]:
                unreferenced.append((module, label))
    return unreferenced


def test_every_top_level_definition_is_referenced():
    found = [(m, n) for m, n in unreferenced_definitions()
             if n not in ALLOWED_UNREFERENCED]
    assert found == []


def test_allow_list_names_only_unreferenced_definitions():
    # an allowed name that gains a caller must leave the list
    assert {n for _, n in unreferenced_definitions()} >= ALLOWED_UNREFERENCED


def test_guard_sees_methods_but_not_dunders(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def used(self):\n"
        "        return self.unused_peer\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "    def __iter__(self):\n"
        "        yield 1\n"
        "\n"
        "A().used()\n", encoding="utf-8")
    assert unreferenced_definitions(tmp_path) == [("mod.py", "A.unused")]


def _exported(src):
    """The names __init__ imports."""
    tree = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _callables(tree, exported):
    """(name a call uses, label, node, bound) of each top-level function and
    method of a top-level class that __init__ does not export, directly or
    through its class; __init__ is called by the class name.  bound is
    whether a call passes the first parameter implicitly (self or cls)."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and node.name not in exported:
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef) and node.name not in exported:
            for sub in node.body:
                if isinstance(sub, FUNCTIONS):
                    decorators = {d.id for d in sub.decorator_list if isinstance(d, ast.Name)}
                    name = node.name if sub.name == "__init__" else sub.name
                    yield name, f"{node.name}.{sub.name}", sub, "staticmethod" not in decorators


def _defaulted(node, bound):
    """(position, name) of each defaulted parameter of a function node, the
    position counted among the arguments a call writes, None when the
    parameter is keyword-only."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls(trees):
    """For each name called in trees (a plain name or an attribute), what
    its calls pass: (number of plain positional arguments, whether a * is
    passed, the keywords, whether a ** is passed) per call."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            plain = sum(not isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            double = any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append((plain, starred, keywords, double))
    return calls


def unpassed_defaults(src=SRC):
    """(module, label, parameter) of each defaulted parameter, of a function
    or method that __init__ does not export, that no call in src passes by
    position, keyword, * or **.  A call counts for every callable of its
    name, whatever the receiver."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    exported = _exported(src)
    calls = _calls(trees)
    found = []
    for module, tree in trees.items():
        for name, label, node, bound in _callables(tree, exported):
            for pos, param in _defaulted(node, bound):
                if not any((pos is not None and (pos < plain or starred))
                           or param in keywords or double
                           for plain, starred, keywords, double in calls.get(name, ())):
                    found.append((module, label, param))
    return found


def test_every_defaulted_parameter_is_passed():
    found = [(m, label, p) for m, label, p in unpassed_defaults()
             if (m, label, p) not in ALLOWED_UNPASSED]
    assert found == []


def test_unpassed_allow_list_names_only_unpassed_parameters():
    # an allowed parameter that a call starts passing must leave the list
    assert set(unpassed_defaults()) >= ALLOWED_UNPASSED


def test_guard_sees_every_way_a_call_passes_a_default(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import api\n", encoding="utf-8")
    (tmp_path / "mod.py").write_text(
        "def api(a=1):\n"
        "    return a\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a\n"
        "def g(a=1, b=2):\n"
        "    return a\n"
        "def h(a=1):\n"
        "    return a\n"
        "class C:\n"
        "    def __init__(self, a=1, b=2):\n"
        "        self.a = a\n"
        "    def m(self, a=1):\n"
        "        return a\n"
        "    @staticmethod\n"
        "    def s(a=1):\n"
        "        return a\n"
        "f(0, 1, d=2)\n"
        "g(*[1])\n"
        "h(**{})\n"
        "C(1).m()\n"
        "C.s(1)\n", encoding="utf-8")
    assert unpassed_defaults(tmp_path) == [("mod.py", "f", "c"), ("mod.py", "f", "e"),
                                           ("mod.py", "C.__init__", "b"), ("mod.py", "C.m", "a")]


def _imported(tree):
    """(name bound, line) of each import in a module tree, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unread_imports(src=SRC):
    """(module, name, line) of each name a module other than __init__
    imports and never reads."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        found += [(path.name, name, line) for name, line in _imported(tree) if name not in read]
    return found


def test_every_imported_name_is_read():
    assert unread_imports() == []


def test_guard_sees_unread_imports_but_not_reexports(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import api\n", encoding="utf-8")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from math import gcd, lcm as least\n"
        "def api():\n"
        "    import json\n"
        "    return os.path.sep, gcd\n", encoding="utf-8")
    assert unread_imports(tmp_path) == [("mod.py", "system", 3), ("mod.py", "least", 4),
                                        ("mod.py", "json", 6)]
