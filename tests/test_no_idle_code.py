"""Every function, class and method of the engine has a caller outside the tests.

A top-level function or class counts as used when its name appears as a
name, an attribute or an imported name somewhere in src/krfl, demos/ or
perfbench/ outside the definition itself; a method counts as used only
through an attribute access (`.name`), so an unrelated local variable of
the same name keeps nothing alive.  String constants count only in
perfbench's non-test modules, which patch functions and methods by name.
Tests alone do not keep engine code alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "krfl"
PERFBENCH = ROOT / "perfbench"
CORPUS = [ENGINE, ROOT / "demos", PERFBENCH]


def definitions(tree):
    """(node, is_method) for top-level functions and classes, and the
    non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item, True


def references(tree, patches_by_name):
    """(name, line, kind) of every name, attribute and imported name, and
    of every string constant where patches_by_name is set."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, "attribute"
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, "name"
        elif (
            patches_by_name
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
        ):
            yield node.value, node.lineno, "string"


def _patches_by_name(path):
    return PERFBENCH in path.parents and PERFBENCH / "tests" not in path.parents


def test_every_engine_definition_is_referenced():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in CORPUS
        for path in sorted(root.rglob("*.py"))
    }
    refs = {}
    for path, tree in trees.items():
        for name, line, kind in references(tree, _patches_by_name(path)):
            refs.setdefault(name, []).append((path, line, kind))
    idle = []
    for path in sorted(ENGINE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node, is_method in definitions(trees[path]):
            outside = [
                (p, line)
                for p, line, kind in refs.get(node.name, [])
                if (p != path or not node.lineno <= line <= node.end_lineno)
                and not (is_method and kind == "name")
            ]
            if not outside:
                idle.append(f"{path.name}:{node.lineno} {node.name}")
    assert not idle, "referenced nowhere outside the tests: " + ", ".join(idle)
