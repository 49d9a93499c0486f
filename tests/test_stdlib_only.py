"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "totecc").glob("*.py"))


def _absolute_imports(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    tops = {name.split(".")[0] for name in _absolute_imports(tree)}
    foreign = sorted(tops - sys.stdlib_module_names)
    assert not foreign, f"{path.name} imports {foreign} from outside the standard library"
