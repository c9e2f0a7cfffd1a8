"""Source checks that need no linter, each made on the package's ``ast``.

- Every imported name is used.  Each module except ``__init__.py`` (whose
  imports are its public re-exports) is checked: a name bound by an
  import statement must occur as a name somewhere else in the module; an
  attribute access such as ``heapq.heappush`` counts as a use of
  ``heapq``.
- No module holds an ``assert``, so every check also runs under
  ``python -O``.
- Every error class of ``errors.py`` but the base ``LatticeError`` is
  named in a ``raise`` in some other module, so no error class is dead.
- No module reads another object's private attribute: ``<expr>._name``
  (one leading underscore) occurs only with ``<expr>`` being ``self``.
- Every entry of the package's name table (``__init__.py`` loads each
  public name from its module on first use) resolves to the object that
  module defines, and ``__all__`` lists exactly the table's names.  This
  one check imports the package rather than parsing it.
- Every parameter of every function but ``self`` is read in the
  function's body, so no argument is passed for nothing.
"""

import ast
import importlib
from collections.abc import Iterable
from pathlib import Path

import pytest

import kappalat

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kappalat"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def asserts(source: str) -> list[int]:
    """Line numbers of the module's assert statements."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def unraised_errors(errors_source: str, sources: Iterable[str]) -> list[str]:
    """Classes of errors_source, bar LatticeError, that no raise in sources names."""
    raised = {
        name.id
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in ast.walk(node.exc)
        if isinstance(name, ast.Name)
    }
    tree = ast.parse(errors_source)
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    return [c for c in classes if c != "LatticeError" and c not in raised]


def private_reads(source: str) -> list[str]:
    """Accesses ``<expr>._name`` (one leading underscore) whose <expr> is not ``self``."""
    return [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


def unused_parameters(source: str) -> list[str]:
    """Parameters, bar ``self``, that their function's body never reads."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        read = {
            name.id
            for stmt in node.body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        unused += [
            f"{node.name}({p.arg}) (line {node.lineno})"
            for p in params
            if p is not None and p.arg != "self" and p.arg not in read
        ]
    return unused


def top_level_names(source: str) -> set[str]:
    """Names the module's own top-level def, class and assignment statements bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def export_mismatch(table: dict[str, str]) -> list[str]:
    """Names of table (public name -> module) that the module does not define,
    or that ``kappalat.<name>`` does not resolve to the module's object."""
    missing = object()
    return [
        name
        for name, module in table.items()
        if name not in top_level_names((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        or getattr(kappalat, name, None)
        is not getattr(importlib.import_module(f"kappalat.{module}"), name, missing)
    ]


def test_modules_found():
    assert {"lattice.py", "cli.py", "_backend.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from ._bits import bits_of, lowest_bit\nimport heapq\n\nx = list(bits_of(5))\n"
    assert unused_imports(source) == ["lowest_bit (line 1)", "heapq (line 2)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_asserts(path):
    assert asserts(path.read_text(encoding="utf-8")) == []


def test_assert_is_reported():
    assert asserts("x = 1\nassert x, 'message'\n") == [2]


def test_every_error_class_is_raised():
    others = [p.read_text(encoding="utf-8") for p in MODULES if p.name != "errors.py"]
    assert unraised_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"), others) == []


def test_unraised_error_is_reported():
    errors_source = (
        "class LatticeError(Exception):\n    pass\n\n"
        "class Used(LatticeError):\n    pass\n\n"
        "class Dead(LatticeError):\n    pass\n"
    )
    user = "def f():\n    raise Used('x') from None\n\nclass G:\n    dead = Dead\n"
    assert unraised_errors(errors_source, [user]) == ["Dead"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_reads_across_objects(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_private_read_is_reported():
    source = (
        "class A:\n    def f(self, other):\n"
        "        return self._x, other._x, other.y._z, self.__doc__\n"
    )
    assert private_reads(source) == ["other._x (line 3)", "other.y._z (line 3)"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_unused_parameter_is_reported():
    source = (
        "def f(a, b, *rest, c, **extra):\n    return a + len(rest)\n\n"
        "class A:\n    def g(self, d):\n        def h():\n            return d\n"
        "        return h\n"
    )
    assert unused_parameters(source) == ["f(b) (line 1)", "f(c) (line 1)", "f(extra) (line 1)"]


def test_all_matches_the_re_exports():
    table = kappalat._MODULE_OF
    assert export_mismatch(table) == []
    assert sum(map(len, kappalat._EXPORTS.values())) == len(table)  # no name listed twice
    assert kappalat.__all__ == sorted(table)
    namespace: dict = {}
    exec("from kappalat import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(kappalat.__all__)


def test_export_mismatch_is_reported():
    # a name the module lacks, and a name the module imports from another
    table = {"bits_of": "_bits", "gone": "io", "build_lattice": "io"}
    assert export_mismatch(table) == ["gone", "build_lattice"]
