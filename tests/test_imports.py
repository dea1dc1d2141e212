"""Every name a module imports is used in it.

A standard-library check over ``src/ssetforge/*.py`` and ``tests/*.py``
with ``ast``: an import binds names, and each must be read somewhere in
the same file, as a name or inside a quoted annotation.  The package
namespace holds only its submodules and its one constant, the collection
policy: every other name is imported from the submodule that defines
it.  No module imports an underscore name from a sibling, with one
named exception.  Every function and class a module
of the package defines at its top level is read somewhere in ``src/`` or
``perfbench/``, bar two named lists (names kept unread on purpose, and
names only the layer tracer's tables hold, which read nothing), and
every method of its classes is read there as an attribute, dunders and
named hooks aside.  Every
parameter with a default is passed by one call there and left out by
another, so that two callers need different values.
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
    # but the collection policy, which the package itself defines and sets
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
    assert exported == ["GC_GEN0_THRESHOLD"]


# top-level names of the package that no program path reads, each kept on
# purpose (see ROADMAP.md)
UNREAD_ALLOWED = {
    "sd_map", "barratt_map", "representing_map",  # items 1 and 2
}

# top-level names that only the layer tracer's tables name: the tracer
# times them when a run calls them, but no program path does
TRACED_ONLY = {"t_nat", "parse_poset", "format_pmap"}

# methods a library calls by name: argparse calls ``error`` on a bad
# command line
HOOKS = {"error"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each function and class defined at top level."""
    kinds = (*FUNCTIONS, ast.ClassDef)
    return [(node.lineno, node.name) for node in ast.parse(source).body if isinstance(node, kinds)]


def methods(source: str) -> list[tuple[int, str, str]]:
    """(line, class, name) for each method of each top-level class,
    dunders aside."""
    return [
        (node.lineno, cls.name, node.name)
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCTIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def attribute_reads(source: str) -> set[str]:
    """The names a source reads as an attribute: each attribute of an
    ``ast.Attribute``."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def traced_names(source: str) -> set[str]:
    """Each part of an attribute path in a module-level ``SPANS`` or
    ``COUNTERS`` table of (module, attribute path) keys, the tables by
    which the layer tracer wraps functions by name.  The tracer wraps a
    name only to time what the program calls, so this is no read."""
    names = set()
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTERS")):
            for _, path in ast.literal_eval(node.value):
                names.update(path.split("."))
    return names


def reads(source: str) -> set[str]:
    """The names a source reads: each ``ast.Name``, the last part of each
    imported name, and its attribute reads.  Docstrings, comments and
    tracer tables read nothing."""
    names = attribute_reads(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_checker_flags_an_unread_definition():
    defined = (
        "class Used:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "    def unused(self):\n"
        "        pass\n"
        "    def error(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        pass\n"
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
        "unused = 1\n"
    )
    read = reads(defined) | reads(reader)
    assert traced_names(reader) == {"traced"}
    # a tracer table reads nothing, so a name only it holds is unread
    assert [(line, name) for line, name in definitions(defined) if name not in read] == [
        (12, "orphan"), (14, "traced")
    ]
    # a method is read only as an attribute, so the local ``unused`` does
    # not read one
    attributes = attribute_reads(defined) | attribute_reads(reader)
    assert [
        (line, f"{cls}.{name}")
        for line, cls, name in methods(defined)
        if name not in attributes and name not in HOOKS
    ] == [(4, "Used.unused")]


def _program() -> tuple[list[Path], list[Path]]:
    package = sorted(PACKAGE.glob("*.py"))
    return package, package + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_definition_is_read_by_a_program_path():
    package, program = _program()
    read = set().union(*(reads(path.read_text()) for path in program))
    traced = set().union(*(traced_names(path.read_text()) for path in program))
    defined = [
        (path, line, name) for path in package for line, name in definitions(path.read_text())
    ]
    # every listed name is still defined and still unread, so neither list
    # can go stale: a name a program path comes to read leaves its list,
    # and a traced-only name is still traced
    names = {name for _, _, name in defined}
    assert UNREAD_ALLOWED <= names and TRACED_ONLY <= names
    assert UNREAD_ALLOWED.isdisjoint(read | traced)
    assert TRACED_ONLY <= traced and TRACED_ONLY.isdisjoint(read)
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, line, name in defined
        if name not in read and name not in UNREAD_ALLOWED | TRACED_ONLY
    ]
    assert hits == []


def test_every_method_is_read_by_a_program_path():
    package, program = _program()
    read = set().union(*(attribute_reads(path.read_text()) for path in program))
    defined = [(path, *row) for path in package for row in methods(path.read_text())]
    # every hook is still a method, so the set cannot go stale
    assert HOOKS <= {name for *_, name in defined}
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {cls}.{name}"
        for path, line, cls, name in defined
        if name not in read and name not in HOOKS
    ]
    assert hits == []


def defaults(source: str) -> list[tuple[int, str, str, str, int | None]]:
    """(line, callee, function, parameter, position) for each parameter
    with a default of each top-level function and each method of a
    top-level class.  The callee is the name a call uses: a function's or
    a method's own, and a constructor's class.  The position counts the
    parameters a call passes by position, past a method's ``self``; it
    is None for a keyword-only parameter."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, FUNCTIONS):
            functions = [(node.name, node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            functions = [
                (node.name if f.name in ("__init__", "__new__") else f.name,
                 f"{node.name}.{f.name}", f, 1)
                for f in node.body
                if isinstance(f, FUNCTIONS)
            ]
        else:
            continue
        for callee, label, f, bound in functions:
            args = f.args
            positional = [*args.posonlyargs, *args.args]
            start = len(positional) - len(args.defaults)
            found += [
                (f.lineno, callee, label, arg.arg, k - bound)
                for k, arg in enumerate(positional)
                if k >= start
            ]
            found += [
                (f.lineno, callee, label, arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
    return found


def calls(source: str) -> list[tuple[str, float, set[str | None]]]:
    """(callee, positional count, keywords) for each call by name, as
    ``f(...)`` or ``x.f(...)``; a ``*args`` counts as every position and
    a ``**kwargs`` as the keyword None, which passes every parameter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee is not None:
                count = len(node.args)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    count = float("inf")
                found.append((callee, count, {k.arg for k in node.keywords}))
    return found


def default_findings(defined: list[tuple], called: list[tuple]) -> list[tuple[int, str]]:
    """(line, finding) for each parameter with a default that no call
    passes, or that every call passes, so no two callers need different
    values.  A call through a value, like ``args.build(space)``, is not
    seen."""
    hits = []
    for line, callee, label, name, position in defined:
        passes = [
            name in keywords or None in keywords or (position is not None and position < count)
            for other, count, keywords in called
            if other == callee
        ]
        if not any(passes):
            hits.append((line, f"{label}({name}): never passed"))
        elif all(passes):
            hits.append((line, f"{label}({name}): default never used"))
    return hits


def test_checker_flags_an_unneeded_default():
    defined = (
        "def never(x, y=0):\n"
        "    pass\n"
        "def always(x, y=0):\n"
        "    pass\n"
        "def both(x, y=0, *, z=1):\n"
        "    pass\n"
        "def spread(x, y=0):\n"
        "    pass\n"
        "class Thing:\n"
        "    def __init__(self, a, b=None):\n"
        "        pass\n"
        "    def method(self, c=2):\n"
        "        pass\n"
        "    def other(self, d=3):\n"
        "        pass\n"
    )
    caller = (
        "never(1)\n"
        "always(1, 2)\n"
        "always(1, y=2)\n"
        "both(1)\n"
        "both(1, 2, z=3)\n"
        "spread(*args)\n"
        "spread(1)\n"
        "Thing(1).method()\n"
        "x.method(**options)\n"
        "x.other(1)\n"
    )
    assert default_findings(defaults(defined), calls(caller)) == [
        (1, "never(y): never passed"),
        (3, "always(y): default never used"),
        (10, "Thing.__init__(b): never passed"),
        (14, "Thing.other(d): default never used"),
    ]


def test_every_default_is_passed_and_omitted_by_program_calls():
    package, program = _program()
    called = [row for path in program for row in calls(path.read_text())]
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {finding}"
        for path in package
        for line, finding in default_findings(
            [row for row in defaults(path.read_text()) if row[1] not in UNREAD_ALLOWED], called
        )
    ]
    assert hits == []
