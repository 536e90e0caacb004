"""Every module of the package reads every name it imports.

An import that nothing reads is dead code: it hides what a module really
depends on and outlives the code that needed it.  The package's
``__init__`` imports names to re-export them, so it is left out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quiverhom"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    # an attribute chain such as linalg.rref starts at the Name it reads
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_scan_sees_every_module():
    assert {"algebra.py", "cli.py", "homology.py", "lab.py", "modules.py"} <= set(MODULES)


def test_the_scan_finds_an_unread_import():
    source = "from .algebra import build_algebra, verify_convex_isos\nimport os.path\n"
    assert unread_imports(source + "verify_convex_isos(1, 2)\n") == ["build_algebra", "os"]
    assert unread_imports(source + "build_algebra(os.path, verify_convex_isos)\n") == []


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_name_it_imports(name):
    assert unread_imports((SRC / name).read_text()) == [], name
