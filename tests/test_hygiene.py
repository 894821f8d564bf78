"""Source hygiene checks that need no linter: only the stdlib ast module."""

import ast
import importlib
from pathlib import Path
from typing import Iterable

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gridcurve").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _imported_names(body: list[ast.stmt]) -> dict[str, int]:
    """Name bound by each import among these statements, with its line."""
    out: dict[str, int] = {}
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _referenced_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ count as used: they are re-exported
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    """Module-level imports that nothing references, and imports in a
    function body that nothing in that function references."""
    tree = ast.parse(source)
    used = _referenced_names(tree)
    out = {(name, line) for name, line in _imported_names(tree.body).items()
           if name not in used}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
            out |= {(name, line) for name, line in _imported_names(func.body).items()
                    if name not in local}
    return sorted(out)


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _units(module: str, tree: ast.Module):
    """(owners, names) for each statement of a module: a module-level
    statement is owned by the name it defines, and each statement of a
    module-level class by the class and, if it is a method, by
    "Class.method" as well."""
    for node in tree.body:
        own = getattr(node, "name", None)
        if not isinstance(node, ast.ClassDef):
            yield {(module, own)}, _names(node)
            continue
        header = node.bases + node.keywords + node.decorator_list
        yield {(module, own)}, set().union(*map(_names, header))
        for stmt in node.body:
            member = getattr(stmt, "name", None)
            yield {(module, own), (module, f"{own}.{member}")}, _names(stmt)


def _unreferenced(sources: dict[str, str], wanted, members=None,
                  users: Iterable[str] = ()) -> list[tuple[str, str]]:
    """Module-level definitions for which ``wanted(node)`` holds, and methods
    of module-level classes, "Class.method", for which ``members(node)``
    holds, whose name no statement of any of the modules references outside
    the definition itself and that are not among the users."""
    defined, units = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        units += _units(module, tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and wanted(node):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef) and members is not None:
                defined += [(module, f"{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and members(m)]
    users = set(users)
    return sorted(
        (module, qualified) for module, qualified, name in defined
        if name not in users
        and not any(name in used for owners, used in units if (module, qualified) not in owners)
    )


def unreferenced_private_functions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Module-level functions named with one leading underscore that no
    statement of any of the modules references, outside their own body."""
    return _unreferenced(sources, lambda node: isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__"))


def _public(node: ast.AST) -> bool:
    return not node.name.startswith("_")


def unreferenced_public_names(sources: dict[str, str],
                              users: Iterable[str]) -> list[tuple[str, str]]:
    """Module-level functions and classes, and methods of those classes,
    without a leading underscore that no statement of the modules references
    outside the definition itself and that are not among the users' names.
    Tests are no users: code that only a test calls belongs in the tests."""
    return _unreferenced(sources, _public, _public, users)


def benchmark_names(benchmark: Iterable[str], traced: Iterable[str]) -> set[str]:
    """The names of gridcurve that the benchmark uses: each name it imports
    from gridcurve, each attribute it reads from what it imports (as in
    ``gridmodel.Patch.faces``), and each part of a traced name."""
    out = {part for name in traced for part in name.split(".")}
    for source in benchmark:
        tree = ast.parse(source)
        imports = [alias for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gridcurve"
                   for alias in node.names]
        out |= {alias.name for alias in imports}
        imported = {alias.asname or alias.name for alias in imports}
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in imported:
                out.update(chain)
    return out


def private_imports(source: str) -> list[tuple[str, int]]:
    """Names with one leading underscore that a relative import takes from
    another module of the package, anywhere in the source."""
    return sorted(
        (alias.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def _own_nodes(func: ast.AST):
    """Nodes of a function body, not descending into nested scopes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def generator_returns(source: str) -> list[tuple[str, int]]:
    """``return <value>`` statements in generator functions, where Python
    drops the value silently."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = list(_own_nodes(func))
            if any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in own):
                out += [(func.name, node.lineno) for node in own
                        if isinstance(node, ast.Return) and node.value is not None]
    return sorted(out)


def _defaulted_parameters(tree: ast.Module):
    """(callee name, parameter, position or None, is a method) for each
    defaulted parameter of a function or method.  An instance call binds a
    method's first parameter, so its positions start after it; ``__init__``
    is called by its class name."""
    out = []

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = cls is not None and not static
                init = cls is not None and child.name == "__init__"
                name = cls.name if init else child.name
                method = cls is not None and not init
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                out.extend((name, arg.arg, i - bound, method)
                           for i, arg in enumerate(positional) if i >= first)
                out.extend((name, arg.arg, None, method)
                           for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _passed(callers: Iterable[str]) -> set[tuple[str, bool, str | int]]:
    """(callee name, called as an attribute, what is passed) for every call:
    each keyword, the number of positional arguments, and "**" or "*" for a
    spread.  ``partial(f, ...)`` counts as a call of f."""
    out = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            if isinstance(func, ast.Name):
                name, attribute = func.id, False
            elif isinstance(func, ast.Attribute):
                name, attribute = func.attr, True
            else:
                continue
            out.add((name, attribute, len(args)))
            if any(isinstance(a, ast.Starred) for a in args):
                out.add((name, attribute, "*"))
            out |= {(name, attribute, "**" if k.arg is None else k.arg) for k in node.keywords}
    return out


def unpassed_defaults(sources: dict[str, str],
                      callers: Iterable[str]) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each defaulted parameter of a
    function or method of the modules that no call in the callers passes:
    by keyword, by position, or through a spread (``**`` passes every
    parameter, ``*`` every positional one).  Calls are matched by name; a
    method only by an attribute call."""
    passed = _passed(callers)

    def passes(what: str | int, param: str, pos: int | None) -> bool:
        if what in ("**", param):
            return True
        return pos is not None and (what == "*" or (isinstance(what, int) and what > pos))

    return sorted(
        (module, name, param)
        for module, source in sources.items()
        for name, param, pos, method in _defaulted_parameters(ast.parse(source))
        if not any(callee == name and (attribute or not method) and passes(what, param, pos)
                   for callee, attribute, what in passed)
    )


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter of a function, method or
    lambda that its body, nested scopes included, never reads.  The first
    parameter of a method that is not static (self, cls) is exempt: every
    method takes it, whether it reads it or not."""
    tree = ast.parse(source)
    bound = {id(node.args.args[0]) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.args.args
             and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)}
    out = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = func.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            body = func.body if isinstance(func.body, list) else [func.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            out += [(getattr(func, "name", "<lambda>"), a.arg) for a in params
                    if a.arg not in read and id(a) not in bound]
    return sorted(out)


def traced_names(source: str) -> list[str]:
    """The keys of the ``TARGETS`` dict literal in a source file, read from
    its syntax tree so that the file is neither imported nor compiled."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return [key.value for key in node.value.keys]
    return []


def unresolved_names(names: Iterable[str]) -> list[str]:
    """Names "module.attr" or "module.Class.method" under gridcurve that do
    not resolve: the module lacks the attribute, or the method is not in
    the class's own __dict__."""
    out = []
    for name in names:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"gridcurve.{module_name}")
        if len(path) == 2:
            owner = getattr(owner, path[0], None)
            found = owner is not None and path[1] in vars(owner)
        else:
            found = hasattr(owner, path[0])
        if not found:
            out.append(name)
    return out


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_only_unreferenced_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Iterable, Sequence\n"
        "import xml.dom\n"
        "def f(x: Sequence) -> int:\n"
        "    return os.sep, xml.dom\n"
    )
    assert unused_imports(source) == [("Iterable", 3), ("system", 2)]


def test_scan_flags_unreferenced_function_imports():
    source = (
        "import os\n"
        "def f():\n"
        "    from math import pi, tau\n"
        "    import re\n"
        "    return pi + os.sep.count(re.escape('x'))\n"
        "def g():\n"
        "    import os\n"
        "    return 1\n"
    )
    assert unused_imports(source) == [("os", 7), ("tau", 3)]


def test_no_unreferenced_private_functions():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_private_functions(sources) == []


def test_scan_flags_unreferenced_private_functions():
    sources = {
        "a.py": (
            "def _used_here(): return 1\n"
            "def _used_elsewhere(): return 2\n"
            "def _only_itself(k): return _only_itself(k - 1) if k else 0\n"
            "def _unused(): return 3\n"
            "def __dunder__(): return 4\n"
            "def public(): return _used_here()\n"
            "class K:\n"
            "    def _method(self): return 5\n"
        ),
        "b.py": "from . import a\nx = a._used_elsewhere()\n",
    }
    assert unreferenced_private_functions(sources) == [
        ("a.py", "_only_itself"), ("a.py", "_unused")]


def test_no_unreferenced_public_names():
    sources = {path.name: path.read_text() for path in SOURCES}
    users = benchmark_names([path.read_text() for path in BENCHMARK],
                            traced_names((ROOT / "perfbench" / "tracing.py").read_text()))
    assert unreferenced_public_names(sources, users) == []


def test_every_default_is_passed_somewhere():
    # tests are no callers, as for names: a parameter that only a test
    # passes belongs in the tests.  cli.main(argv) is exempt: the console
    # script calls main() without it, and the tests pass argv the way a
    # shell does.
    sources = {path.name: path.read_text() for path in SOURCES}
    callers = [path.read_text() for path in SOURCES + BENCHMARK]
    assert unpassed_defaults(sources, callers) == [("cli.py", "main", "argv")]


def test_every_parameter_is_read():
    # validator.validate(coverage_k) is exempt: coverage has no depth, but
    # the benchmark's workloads still pass it, and they are left as they
    # are until the next change to the benchmark
    found = [(path.name, *item) for path in SOURCES for item in unread_parameters(path.read_text())]
    assert found == [("validator.py", "validate", "coverage_k")]


def test_scan_flags_unread_parameters():
    source = (
        "def f(used, unused, *rest, flag=1, **extra):\n"
        "    return used + flag\n"
        "def g(x, y):\n"
        "    def inner():\n"
        "        return y\n"
        "    x = 1\n"
        "    return inner\n"
        "class K:\n"
        "    def method(self, a, b):\n"
        "        return a\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return 1\n"
        "    @staticmethod\n"
        "    def static(first, second):\n"
        "        return second\n"
        "h = lambda p, q: p\n"
    )
    assert unread_parameters(source) == [
        ("<lambda>", "q"), ("f", "extra"), ("f", "rest"), ("f", "unused"),
        ("g", "x"), ("method", "b"), ("static", "first")]


def test_scan_flags_unpassed_defaults():
    sources = {
        "a.py": (
            "def f(x, by_name=1, by_position=2, never=3, *, only_kw=4, kw_never=5):\n"
            "    return x\n"
            "def spread(a=1, b=2): return a\n"
            "def starred(a=1, *, b=2): return a\n"
            "def wrapped(a=1, b=2): return a\n"
            "class K:\n"
            "    def __init__(self, size=1, unused=2): self.size = size\n"
            "    def next(self, skip=True): return skip\n"
            "    def method(self, first=1, second=2): return first\n"
            "    @staticmethod\n"
            "    def build(first=1, second=2): return first\n"
            "    def nested(self):\n"
            "        def inner(deep=1): return deep\n"
            "        return inner()\n"
        ),
        "b.py": (
            "from functools import partial\n"
            "from a import K, f, spread, starred, wrapped\n"
            "f(0, by_name=1)\nf(0, 1, 2, only_kw=4)\n"
            "spread(**{})\nstarred(*[])\n"
            "partial(wrapped, 1)()\n"
            "k = K(3)\nnext(iter([]), None)\n"
            "k.method(1)\nK.build(1)\n"
        ),
    }
    assert unpassed_defaults(sources, sources.values()) == [
        ("a.py", "K", "unused"), ("a.py", "build", "second"),
        ("a.py", "f", "kw_never"), ("a.py", "f", "never"),
        ("a.py", "inner", "deep"), ("a.py", "method", "second"),
        ("a.py", "next", "skip"), ("a.py", "starred", "b"),
        ("a.py", "wrapped", "b"),
    ]


def test_scan_flags_unreferenced_public_names():
    sources = {
        "a.py": (
            "def used_here(): return 1\n"
            "def used_elsewhere(): return 2\n"
            "def only_itself(k): return only_itself(k - 1) if k else 0\n"
            "def tested(): return 3\n"
            "def benchmarked(): return 4\n"
            "def _private(): return used_here()\n"
            "class Patch:\n"
            "    def head(self): return 1\n"
            "    def walk(self): return self.head()\n"
            "    def faces(self): return Patch()\n"
            "    def successors(self): return self.successors()\n"
            "    def _build(self): return 5\n"
            "    def __len__(self): return 6\n"
            "class Lonely:\n"
            "    def make(self): return Lonely()\n"
        ),
        "b.py": "from .a import Patch, used_elsewhere\nx = used_elsewhere(), Patch().walk()\n",
    }
    # a test that calls tested() and Patch().successors() makes no difference
    users = benchmark_names(["from gridcurve.a import benchmarked\nbenchmarked()\n"],
                            traced_names("TARGETS = {'a.Patch.faces': None}\n"))
    assert unreferenced_public_names(sources, users) == [
        ("a.py", "Lonely"), ("a.py", "Lonely.make"), ("a.py", "Patch.successors"),
        ("a.py", "only_itself"), ("a.py", "tested")]


def test_benchmark_names_are_imports_their_attributes_and_traced_names():
    source = (
        "import json\n"
        "from gridcurve import catalog, gridmodel as gm\n"
        "from gridcurve.render import check_svg\n"
        "def check(entry):\n"
        "    return catalog.grid(entry.name), gm.Patch.faces, json.dumps(entry.order)\n"
    )
    assert benchmark_names([source], ["validator.validate"]) == {
        "catalog", "gridmodel", "check_svg", "grid", "Patch", "faces", "validator", "validate"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path.read_text()) == []


def test_scan_flags_private_imports():
    source = (
        "from .validator import INVALID, _chords_cross, validate\n"
        "from . import _helpers\n"
        "from ._impl import public\n"
        "from os import _exit\n"
        "from .words import __version__\n"
        "def f():\n"
        "    from .exactgeom import _power_reps as reps\n"
        "    return reps\n"
    )
    assert private_imports(source) == [
        ("_chords_cross", 1), ("_helpers", 2), ("_power_reps", 7)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_generator_returns_a_value(path):
    assert generator_returns(path.read_text()) == []


def test_scan_flags_generator_returns():
    source = (
        "def numbers(text):\n"
        "    for m in text.split():\n"
        "        try:\n"
        "            yield float(m)\n"
        "        except ValueError:\n"
        "            return False\n"
        "def stops(xs):\n"
        "    yield from xs\n"
        "    return\n"
        "def plain():\n"
        "    return 1\n"
        "def outer():\n"
        "    def inner():\n"
        "        yield 1\n"
        "    return inner\n"
        "def lazy():\n"
        "    yield (lambda: 2)\n"
        "    return None\n"
    )
    assert generator_returns(source) == [("lazy", 18), ("numbers", 6)]


def test_every_traced_name_resolves():
    names = traced_names((ROOT / "perfbench" / "tracing.py").read_text())
    assert "validator.check_coverage" in names
    assert "search.TorusPatch.build" in names
    assert unresolved_names(names) == []


def test_scan_flags_unresolved_traced_names():
    source = (
        "TIMEOUT = 3\n"
        "TARGETS = {\n"
        "    'validator.validate': None,\n"
        "    'search.TorusPatch.symmetries': lambda args, out: {},\n"
        "}\n"
    )
    assert traced_names(source) == ["validator.validate", "search.TorusPatch.symmetries"]
    assert traced_names("TIMEOUT = 3\n") == []
    names = ["validator.validate", "validator._displacement_table", "search.TorusPatch.build",
             "search.TorusPatch.no_such_method", "search.NoSuchClass.build", "render.render_line"]
    assert unresolved_names(names) == [
        "validator._displacement_table", "search.TorusPatch.no_such_method", "search.NoSuchClass.build"]
