import ast
from pathlib import Path

import aksvd


def test_every_export_resolves():
    assert len(set(aksvd.__all__)) == len(aksvd.__all__)
    for name in aksvd.__all__:
        getattr(aksvd, name)   # AttributeError names a stale export


def test_star_import():
    namespace = {}
    exec("from aksvd import *", namespace)
    assert set(aksvd.__all__) <= set(namespace)


def test_every_private_helper_is_used():
    # a _-prefixed function or class that nothing in the package names is
    # dead code, and so is a _-prefixed attribute stored on self that
    # nothing in the package reads
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(aksvd.__file__).parent.glob("*.py")]
    defined, used, stored, read = set(), set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    stored.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(name for name in (defined - used) | (stored - read)
                    if name.startswith("_") and not name.startswith("__"))
    assert not unused, unused
