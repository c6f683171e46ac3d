"""Dead-code guard: every top-level function and class in the package is
referenced somewhere in the package other than its own body."""

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


def unreferenced_definitions(src=SRC):
    """(module, name) of each top-level def or class that nothing in src
    references outside its own body."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and total[node.name] == _references(node)[node.name]):
                unreferenced.append((module, node.name))
    return unreferenced


def test_every_top_level_definition_is_referenced():
    found = [(m, n) for m, n in unreferenced_definitions()
             if n not in ALLOWED_UNREFERENCED]
    assert found == []


def test_allow_list_names_only_unreferenced_definitions():
    # an allowed name that gains a caller must leave the list
    assert {n for _, n in unreferenced_definitions()} >= ALLOWED_UNREFERENCED
