"""Source checks that need no linter: every imported name is used.

Each module of the package except ``__init__.py`` (whose imports are its
public re-exports) is parsed with ``ast``.  A name bound by an import
statement must occur as a name somewhere else in the module; an
attribute access such as ``heapq.heappush`` counts as a use of
``heapq``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kappalat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_modules_found():
    assert {"lattice.py", "cli.py", "_backend.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from ._bits import bits_of, lowest_bit\nimport heapq\n\nx = list(bits_of(5))\n"
    assert unused_imports(source) == ["lowest_bit (line 1)", "heapq (line 2)"]
