"""Every module-level import in the package is used.

A small stand-in for a linter's unused-import rule, built on the standard
`ast` module: a name bound by a top-level import must be read somewhere in
its module, or be re-exported through the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

import paramhom

MODULES = sorted(Path(paramhom.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_detects_an_unused_import():
    src = "import math\nimport os\nfrom typing import Any, List\n__all__ = ['Any']\nos.sep\n"
    assert unused_imports(src) == ["line 1: math", "line 3: List"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
