"""Every function, class and method of the engine has a caller outside the tests.

A definition counts as used when its name appears, as a name, an
attribute, an imported name or a string constant (perfbench patches
functions by name), somewhere in src/krfl, demos/ or perfbench/ outside
the definition itself.  Tests alone do not keep engine code alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "krfl"
CORPUS = [ENGINE, ROOT / "demos", ROOT / "perfbench"]


def definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def references(tree):
    """(name, line) of every name, attribute, imported name and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_engine_definition_is_referenced():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in CORPUS
        for path in sorted(root.rglob("*.py"))
    }
    refs = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            refs.setdefault(name, []).append((path, line))
    idle = []
    for path in sorted(ENGINE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in definitions(trees[path]):
            outside = [
                (p, line)
                for p, line in refs.get(node.name, [])
                if p != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                idle.append(f"{path.name}:{node.lineno} {node.name}")
    assert not idle, "referenced nowhere outside the tests: " + ", ".join(idle)
