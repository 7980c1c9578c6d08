"""The library is pure Python over exact ints and declares only ``click``.

An import of an undeclared package (numpy, scipy, sympy, ...) would pass
wherever that package happens to be installed and break a clean install,
so every absolute import in ``src/cubeburnside`` must be the standard
library or ``click``.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubeburnside"
DECLARED = {"click"}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_stdlib_and_declared_imports():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    allowed = set(sys.stdlib_module_names) | DECLARED
    stray = {(p.name, name) for p in modules for name in _absolute_imports(p)
             if name.split(".")[0] not in allowed}
    assert not stray
