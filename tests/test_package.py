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
    # dead code
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(aksvd.__file__).parent.glob("*.py")]
    defined, used = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(name for name in defined - used
                    if name.startswith("_") and not name.startswith("__"))
    assert not unused, unused
