"""Every module of the package reads every name it imports, the package
reads every private name it defines, and every export has a reader or a
listed reason.

An import that nothing reads is dead code: it hides what a module really
depends on and outlives the code that needed it.  The package's
``__init__`` imports names to re-export them, so it is left out.  A private
function, class, method or module-level constant is not for callers outside
the package, so one that nothing in the package reads has no caller left.
An exported function, or a public method or property of an exported class,
that neither the package, its scripts nor its benchmark reads is either API
kept for a stated reason (``UNREAD_EXPORTS``) or a second path to remove.
"""

import ast
import functools
import inspect
import types
from pathlib import Path

import pytest

import quiverhom

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quiverhom"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# the readers of the exports: the package without its __init__, the scripts and the benchmark
READERS = [*(SRC / name for name in MODULES), *sorted(ROOT.glob("scripts/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]

# every export that no reader reads, with the reason it stays
UNREAD_EXPORTS = {
    "dual_map": "ROADMAP item 8; perfbench/tracing.LAYERS names it only as a string, so it waits for item 6",
    "kernel_of_map": "ROADMAP item 8; perfbench/tracing.LAYERS names it only as a string, so it waits for item 6",
    "quotient_by_submodule": "ROADMAP item 8; perfbench/tracing.LAYERS names it only as a string, so it waits for item 6",
    "inj_dim": "the injective dimension, the dual of proj_dim; ROADMAP item 11's dims command is to print it",
    "serialize_ideal": "kept for ROADMAP item 6's dump of a failing case as a workspace file",
    "serialize_module": "kept for ROADMAP item 6's dump of a failing case as a workspace file",
    "serialize_quiver": "kept for ROADMAP item 6's dump of a failing case as a workspace file",
    "serialize_subquiver": "kept for ROADMAP item 6's dump of a failing case as a workspace file",
    "IdealSpec.monomial": "API that README documents: the ideal of a monomial algebra",
    "PrimeField.parse": "API that README documents: a literal read as the workspace files read it",
    "Rationals.parse": "API that README documents: a literal read as the workspace files read it",
}
_MEMBER_KINDS = (types.FunctionType, property, functools.cached_property, staticmethod, classmethod)


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


def unread_exports(exports: dict, sources: list[str]) -> list[str]:
    """The exported functions (by the name they are defined under), and the
    public methods and properties of the exported classes (as Class.member),
    that no name or attribute in the sources reads."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = set()
    for name, value in exports.items():
        if inspect.isfunction(value) and value.__name__ not in read:
            unread.add(value.__name__)
        elif inspect.isclass(value):
            unread |= {
                f"{name}.{member}"
                for base in value.__mro__
                for member, kind in vars(base).items()
                if not member.startswith("_") and isinstance(kind, _MEMBER_KINDS) and member not in read
            }
    return sorted(unread)


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


def test_the_scan_finds_an_unread_export():
    class Box:
        def fill(self):
            pass

        @property
        def size(self):
            return 0

        def _spare(self):
            pass

    def helper():
        pass

    exports = {"Box": Box, "alias": helper}
    assert unread_exports(exports, ["x = 1\n"]) == ["Box.fill", "Box.size", "helper"]
    # a read by name or by attribute counts; a string naming it does not
    assert unread_exports(exports, ["helper(Box().fill)\nBox.size\n", "'fill'\n"]) == []
    assert unread_exports(exports, ["Box().fill()\n'helper', 'size'\n"]) == ["Box.size", "helper"]


def test_every_export_has_a_reader_or_a_listed_reason():
    exports = {name: value for name, value in vars(quiverhom).items() if not name.startswith("_")}
    assert unread_exports(exports, [p.read_text() for p in READERS]) == sorted(UNREAD_EXPORTS)


def test_the_package_reads_every_private_name_it_defines():
    assert unread_private_definitions([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_name_it_imports(name):
    assert unread_imports((SRC / name).read_text()) == [], name


def test_the_module_draws_go_through_the_module_layer():
    # lab builds its modules with the functions of modules: it imports no
    # term bookkeeping and reads no product table, and no module keeps a
    # builder of a term's action beside materialize_term.  The one table lab
    # reads is a chain's syzygy table, m.table
    lab = ast.parse((SRC / "lab.py").read_text())
    imported = {alias.name for node in ast.walk(lab) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"term_info", "TermInfo", "term_action"}
    tables = {ast.unparse(node) for node in ast.walk(lab) if isinstance(node, ast.Attribute) and node.attr == "table"}
    assert tables <= {"m.table"}, tables
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "term_action" not in defined
