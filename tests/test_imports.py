"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "strata"
# __init__.py imports names only to export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    """Names bound by import statements anywhere in source and never read."""
    imported = set()
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = (
        "import os\nimport os.path as osp\nfrom x import y, z as w\n"
        "def f():\n    import sympy\n    return y, 'os'\n"
    )
    assert _unused_imports(source) == ["os", "osp", "sympy", "w"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []
