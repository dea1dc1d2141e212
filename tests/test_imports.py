"""Every name a module imports is used in it.

A standard-library check over ``src/ssetforge/*.py`` and ``tests/*.py``
with ``ast``: an import binds names, and each must be read somewhere in
the same file, as a name or inside a quoted annotation.  The package
namespace holds only its submodules: every name is imported from the
submodule that defines it.  No module imports an underscore name from a
sibling, with one named exception.  Every function and class a module
of the package defines at its top level is read somewhere in ``src/`` or
``perfbench/``, with a named allowlist.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import ssetforge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ssetforge"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the source never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from pathlib import Path, PurePath\n"
        "def f(x: 'Path') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "system"), (3, "PurePath")]


def test_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert hits == []


# (module, name) of the private names a sibling may import: ``_simplex``
# builds a Simplex in C, skipping the NamedTuple's Python-level __new__,
# for the hot loops of colimits and posets
SHARED_PRIVATE = {("simplicial", "_simplex")}


def private_sibling_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) for each underscore name taken by a relative
    import, the form in which every module imports its siblings."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            hits += [
                (node.lineno, node.module, alias.name)
                for alias in node.names
                if alias.name.startswith("_") and (node.module, alias.name) not in SHARED_PRIVATE
            ]
    return hits


def test_checker_flags_a_private_sibling_import():
    source = (
        "from .textio import ParseError, _rows\n"
        "from .simplicial import Simplex, _simplex\n"
        "from .posets import _canonical_key as key\n"
        "from os import _exit\n"
    )
    assert private_sibling_imports(source) == [
        (1, "textio", "_rows"), (3, "posets", "_canonical_key")
    ]


def test_no_private_sibling_imports():
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {module}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module, name in private_sibling_imports(path.read_text())
    ]
    assert hits == []


def test_no_export_shadows_a_submodule():
    # ``import ssetforge.x as m`` binds the attribute ``ssetforge.x``, so a
    # re-exported name equal to a submodule's would bind that name instead;
    # with no re-exports, every public attribute of the package is a module
    names = [info.name for info in pkgutil.iter_modules(ssetforge.__path__)]
    assert "desingularize" in names
    for name in names:
        importlib.import_module(f"ssetforge.{name}")
        assert isinstance(getattr(ssetforge, name), types.ModuleType), name
    exported = [
        name
        for name, value in vars(ssetforge).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    ]
    assert exported == []


# top-level names of the package that no program path reads, each kept on
# purpose (see ROADMAP.md)
UNREAD_ALLOWED = {
    "sd_map", "barratt_map", "representing_map",  # items 1 and 2
    "all_operators", "make_degen",  # the tests' enumeration primitives
}


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each function and class defined at top level."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.lineno, node.name) for node in ast.parse(source).body if isinstance(node, kinds)]


def reads(source: str) -> set[str]:
    """The names a source reads: each ``ast.Name``, each attribute of an
    ``ast.Attribute``, the last part of each imported name, and each part
    of an attribute path in a module-level ``SPANS`` or ``COUNTERS`` table
    of (module, attribute path) keys, the tables by which the layer tracer
    wraps functions by name.  Docstrings and comments read nothing."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTERS")):
            for _, path in ast.literal_eval(node.value):
                names.update(path.split("."))
    return names


def test_checker_flags_an_unread_definition():
    defined = (
        "class Used:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "def helper():\n"
        '    """Mentions orphan, which a docstring does not read."""\n'
        "def orphan():\n"
        "    pass\n"
        "def traced():\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n"
    )
    reader = (
        "from pkg.defined import imported\n"
        "SPANS = {('defined', 'traced'): 'defined.traced'}\n"
        "x = Used().method()\n"
    )
    read = reads(defined) | reads(reader)
    assert [(line, name) for line, name in definitions(defined) if name not in read] == [
        (6, "orphan")
    ]


def test_every_definition_is_read_by_a_program_path():
    package = sorted(PACKAGE.glob("*.py"))
    program = package + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(reads(path.read_text()) for path in program))
    defined = [
        (path, line, name) for path in package for line, name in definitions(path.read_text())
    ]
    # every allowed name is still defined, so the allowlist cannot go stale
    assert UNREAD_ALLOWED <= {name for _, _, name in defined}
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, line, name in defined
        if name not in read and name not in UNREAD_ALLOWED
    ]
    assert hits == []
