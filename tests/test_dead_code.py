"""Dead-code guard: every top-level function and class in the package, and
every method of a top-level class that is not a dunder, is referenced
somewhere in the package other than its own body."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "schinzelpoly"

# test oracles kept in the package although only the tests call them
ALLOWED_UNREFERENCED = {"brute_force_factor"}


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
