"""Every module of the package reads every name it imports, and the
package reads every private name it defines.

An import that nothing reads is dead code: it hides what a module really
depends on and outlives the code that needed it.  The package's
``__init__`` imports names to re-export them, so it is left out.  A private
function, class, method or module-level constant is not for callers outside
the package, so one that nothing in the package reads has no caller left.
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


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_definitions(sources: list[str]) -> list[str]:
    """Private functions, classes, methods and module-level constants that
    no expression, attribute or import in the sources reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(name for name in defined - read if is_private(name))


def test_the_scan_sees_every_module():
    assert {"algebra.py", "cli.py", "homology.py", "lab.py", "modules.py"} <= set(MODULES)


def test_the_scan_finds_an_unread_import():
    source = "from .algebra import build_algebra, verify_convex_isos\nimport os.path\n"
    assert unread_imports(source + "verify_convex_isos(1, 2)\n") == ["build_algebra", "os"]
    assert unread_imports(source + "build_algebra(os.path, verify_convex_isos)\n") == []


def test_the_scan_finds_an_unread_private_definition():
    source = (
        "_LIMIT, PUBLIC = 3, 4\n_ORPHAN: int = 5\n"
        "class _Box:\n    def _fill(self): pass\n    def __init__(self): self._spare = 1\n"
        "def _helper(x):\n    def _inner(): pass\n    return x\n"
    )
    assert unread_private_definitions([source]) == ["_Box", "_LIMIT", "_ORPHAN", "_fill", "_helper", "_inner"]
    # a read by name, by attribute or by import in another module counts
    readers = "_Box()._fill()\nprint(_LIMIT, _ORPHAN)\n", "from .box import _helper, _inner\n"
    assert unread_private_definitions([source, *readers]) == []


def test_the_package_reads_every_private_name_it_defines():
    assert unread_private_definitions([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_name_it_imports(name):
    assert unread_imports((SRC / name).read_text()) == [], name
