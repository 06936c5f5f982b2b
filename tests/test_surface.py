"""The library is what the CLI, the demos and the benchmark use.

Every name ``semiwalk`` exports, and every public top-level function or
class in ``src/semiwalk``, must be read in ``src/`` outside its own
definition, or in ``demos/`` or ``perfbench/``.  The benchmark wraps
functions by name, so a string there counts as a read.  What only the
tests need lives in ``tests/reference.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reads(tree, strings=False) -> Counter:
    """How often each name is read in a tree: loaded identifiers and
    attributes, and with ``strings`` also imported names and string
    constants."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif strings and isinstance(node, ast.alias):
            reads[node.name.rpartition(".")[2]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads[node.value] += 1
    return reads


def test_every_public_name_is_read_outside_the_tests():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in (ROOT / "src" / "semiwalk").glob("*.py")}
    init = trees.pop("__init__.py")
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defs = {node.name: node for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    for folder in ("demos", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            reads += _reads(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    unread = sorted(
        name for name in exported | set(defs)
        if reads[name] <= (_reads(defs[name])[name] if name in defs else 0)
    )
    assert not unread, f"read by nothing outside the tests: {unread}"
