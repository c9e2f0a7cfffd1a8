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
- Every ``raise InternalInvariant(...)`` has its message in a test: the
  longest literal part of the message occurs verbatim in some test file,
  so no identity check goes without a test that can make it fire.
- No module defines ``__setattr__``, ``__delattr__``, ``__eq__``,
  ``__hash__`` or ``__reduce__``: value types are ``NamedTuple``s and
  take their value protocol from it.
- No top-level function name is defined twice among the modules under
  ``tests/``: a shared test helper lives in one module, which the others
  import.
- No ``tests/test_*.py`` imports from another: shared test code lives in
  ``tests/helpers.py`` and ``tests/strategies.py``.
- Every module of the package and of ``tests/`` parses as the oldest
  Python that ``pyproject.toml``'s ``requires-python`` admits.
- Every top-level function of ``tests/helpers.py`` and
  ``tests/strategies.py`` is imported by some ``tests/test_*.py`` or read
  by a helper that is, so no oracle is left without a caller.
- README's ``## Limits`` section cites each size cap of the package
  (``lattice.MAX_ELEMENTS``, the four ``generators.*_CAP``,
  ``intervals.MAX_INTERVALS``, ``intervals.MAX_LABEL_SETS`` and
  ``orders.MAX_ORACLE_ELEMENTS``) with the value the code has, so raising
  a cap makes its README edit mandatory.
"""

import ast
import importlib
import re
from collections import defaultdict
from collections.abc import Iterable
from pathlib import Path

import pytest

import kappalat

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "kappalat"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
TEST_MODULES = sorted(TESTS.glob("*.py"))
TEST_FILES = sorted(TESTS.glob("test_*.py"))


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


def invariant_messages(source: str) -> list[str]:
    """Longest literal part of the message of each ``raise InternalInvariant(...)``."""
    messages = []
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "InternalInvariant":
            text = call.args[0]
            parts = text.values if isinstance(text, ast.JoinedStr) else [text]
            messages.append(max((p.value for p in parts if isinstance(p, ast.Constant)), key=len))
    return messages


def unexercised_invariants(sources: Iterable[str], tests: Iterable[str]) -> list[str]:
    """Messages of invariant_messages(sources) that no text of tests holds."""
    tests = list(tests)
    return [
        message
        for source in sources
        for message in invariant_messages(source)
        if not any(message in test for test in tests)
    ]


VALUE_PROTOCOL = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"}


def value_protocol_defs(source: str) -> list[str]:
    """Functions of the module named as a method of the value protocol."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in VALUE_PROTOCOL
    ]


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


def duplicate_functions(sources: dict[str, str]) -> list[str]:
    """Top-level function names defined more than once across sources (module -> text)."""
    defined_in = defaultdict(list)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined_in[node.name].append(module)
    return [
        f"{name} ({', '.join(modules)})"
        for name, modules in sorted(defined_in.items())
        if len(modules) > 1
    ]


def cross_test_imports(sources: dict[str, str]) -> list[str]:
    """Imports of a ``test_*`` module in sources (file name -> text)."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{name} imports {m} (line {node.lineno})" for m in modules if m.startswith("test_")
            ]
    return found


def unreached_helpers(helpers: dict[str, str], tests: Iterable[str]) -> list[str]:
    """Top-level functions of helpers (module name -> text) that no module
    of tests imports, directly or through the helpers such an import reads."""
    reads = {
        node.name: {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
        for source in helpers.values()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    todo = [
        alias.name
        for source in tests
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module in helpers
        for alias in node.names
    ]
    reached = set()
    while todo:
        name = todo.pop()
        if name in reads and name not in reached:
            reached.add(name)
            todo += reads[name]
    return sorted(set(reads) - reached)


# Each size cap and the phrases of README's Limits section that cite it.
README_LIMITS = {
    ("lattice", "MAX_ELEMENTS"): [r"capped at ([\d,]+) elements", r"([\d,]+)-element cap"],
    ("generators", "CHAIN_CAP"): [r"`chain` ([\d,]+)"],
    ("generators", "BOOLEAN_CAP"): [r"`boolean` ([\d,]+)"],
    ("generators", "WEAK_SYM_CAP"): [r"`weak_sym` ([\d,]+)"],
    ("generators", "WEAK_DIHEDRAL_CAP"): [r"`weak_dihedral` ([\d,]+)"],
    ("intervals", "MAX_INTERVALS"): [
        r"more than ([\d,]+) (?:\w+ )?intervals", r"intervals to sweep; the cap is ([\d,]+)"
    ],
    ("intervals", "MAX_LABEL_SETS"): [
        r"more than ([\d,]+) distinct (?:\w+ )?label sets", r"label sets; the cap is ([\d,]+)"
    ],
    ("orders", "MAX_ORACLE_ELEMENTS"): [r"at most ([\d,]+) elements"],
}


def stale_limits(readme: str) -> list[str]:
    """Caps of README_LIMITS that README's ## Limits section cites nowhere,
    or with a number other than the constant's value."""
    section = " ".join(readme.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0].split())
    stale = []
    for (module, name), phrases in README_LIMITS.items():
        value = getattr(importlib.import_module(f"kappalat.{module}"), name)
        cited = [
            int(number.replace(",", ""))
            for phrase in phrases
            for number in re.findall(phrase, section)
        ]
        if not cited or set(cited) != {value}:
            stale.append(f"{module}.{name} = {value}, cited as {cited}")
    return stale


def python_floor() -> tuple[int, int]:
    """The oldest Python that pyproject.toml's requires-python admits."""
    text = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    return 3, int(re.search(r'^requires-python = ">=3\.(\d+)"$', text, re.M).group(1))


def test_modules_found():
    assert {"lattice.py", "cli.py", "_backend.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
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


def test_every_invariant_message_occurs_in_a_test():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert len([m for source in sources for m in invariant_messages(source)]) >= 10
    tests = [p.read_text(encoding="utf-8") for p in TESTS.rglob("*.py")]
    assert unexercised_invariants(sources, tests) == []


def test_unexercised_invariant_is_reported():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise InternalInvariant(f'{x!r} broke a planted identity')\n"
        "    if x is None:\n"
        "        raise InternalInvariant('a covered message')\n"
        "    raise ValueError('not an invariant')\n"
    )
    tests = ["with pytest.raises(InternalInvariant, match='a covered message'):"]
    assert invariant_messages(source) == [" broke a planted identity", "a covered message"]
    assert unexercised_invariants([source], tests) == [" broke a planted identity"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_hand_written_value_protocol(path):
    assert value_protocol_defs(path.read_text(encoding="utf-8")) == []


def test_hand_written_value_protocol_is_reported():
    source = (
        "class A:\n    def __eq__(self, other):\n        return True\n\n"
        "    def __hash__(self):\n        return 0\n\n    def __repr__(self):\n        return 'A'\n"
    )
    assert value_protocol_defs(source) == ["__eq__ (line 2)", "__hash__ (line 5)"]


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


def test_each_test_helper_is_defined_once():
    sources = {p.name: p.read_text(encoding="utf-8") for p in TEST_MODULES}
    assert duplicate_functions(sources) == []


def test_duplicate_function_is_reported():
    sources = {
        "a.py": "def m3():\n    pass\n\ndef f():\n    pass\n",
        "b.py": "class C:\n    def f(self):\n        pass\n\ndef m3():\n    pass\n",
    }
    assert duplicate_functions(sources) == ["m3 (a.py, b.py)"]


@pytest.mark.parametrize(
    "path", ALL_MODULES + TEST_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=python_floor())


def test_syntax_above_the_python_floor_is_reported():
    assert python_floor() == (3, 10)
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=python_floor())


def test_no_test_module_imports_another():
    sources = {p.name: p.read_text(encoding="utf-8") for p in TEST_FILES}
    assert cross_test_imports(sources) == []


def test_cross_test_import_is_reported():
    sources = {
        "test_a.py": "from helpers import m3\nfrom test_b import _sd_lattice\n",
        "test_b.py": "import strategies, test_a\nfrom test_c import x\n",
    }
    assert cross_test_imports(sources) == [
        "test_a.py imports test_b (line 2)",
        "test_b.py imports test_a (line 1)",
        "test_b.py imports test_c (line 2)",
    ]


def test_every_test_helper_has_a_caller():
    helpers = {m: (TESTS / f"{m}.py").read_text(encoding="utf-8") for m in ("helpers", "strategies")}
    tests = [p.read_text(encoding="utf-8") for p in TEST_FILES]
    assert unreached_helpers(helpers, tests) == []


def test_unreached_helper_is_reported():
    helpers = {
        "helpers": "def used():\n    return _inner()\n\ndef _inner():\n    pass\n\n"
        "def dead():\n    return used()\n",
        "strategies": "def drawn():\n    pass\n\ndef orphan():\n    pass\n",
    }
    tests = ["from helpers import used\nfrom strategies import drawn\nfrom other import orphan\n"]
    assert unreached_helpers(helpers, tests) == ["dead", "orphan"]


def test_readme_limits_match_the_caps():
    assert stale_limits((TESTS.parent / "README.md").read_text(encoding="utf-8")) == []


def test_stale_readme_limit_is_reported(monkeypatch):
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    monkeypatch.setattr(importlib.import_module("kappalat.lattice"), "MAX_ELEMENTS", 16384)
    assert stale_limits(readme) == ["lattice.MAX_ELEMENTS = 16384, cited as [5000, 5000]"]
    monkeypatch.undo()
    assert stale_limits(readme.replace("`boolean` 12", "`boolean` twelve")) == [
        "generators.BOOLEAN_CAP = 12, cited as []"
    ]
