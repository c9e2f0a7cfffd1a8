"""The modules each entry point loads, pinned in a fresh interpreter.

``import kappalat`` runs no submodule, since its names load on first
use.  The command line loads what parsing, the lattice test and the
emitters need, and each command adds only the modules it runs.  The
interpreter runs with ``-S``, so no site hook preloads a module, and
the pins also keep ``pathlib``, ``dataclasses`` and ``inspect`` (slow to
import: ``dataclasses`` loads ``inspect``, which loads ``ast``, ``dis``
and ``tokenize``) off every path, the full ``from kappalat import *``
included.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kappalat import emit_lattice, gen_fig1

SRC = Path(__file__).resolve().parent.parent / "src"
CLI = {
    "kappalat",
    "kappalat._backend",
    "kappalat._bits",
    "kappalat.cli",
    "kappalat.errors",
    "kappalat.io",
    "kappalat.lattice",
}
# prepended to each program: print the loaded package modules (and the
# standard modules kept off every path) at exit
REPORT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.partition('.')[0]"
    " in ('kappalat', 'pathlib', 'dataclasses', 'inspect')), file=sys.stderr))\n"
)


def loaded(program: str, cwd: Path) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", REPORT + program],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_package_import_loads_no_submodule(tmp_path):
    assert loaded("import kappalat", tmp_path) == {"kappalat"}


def test_cli_import_loads_parse_build_and_emit(tmp_path):
    assert loaded("import kappalat.cli", tmp_path) == CLI


def test_star_import_loads_every_library_module_only(tmp_path):
    library = {
        "kappalat", "kappalat._backend", "kappalat._bits", "kappalat.errors",
        "kappalat.generators", "kappalat.intervals", "kappalat.io", "kappalat.labeling",
        "kappalat.lattice", "kappalat.orders",
    }
    assert loaded("from kappalat import *", tmp_path) == library


# a command's argv, and the modules it adds to those of CLI
COMMANDS = [
    (["check", "fig1.json"], {"kappalat.labeling"}),
    (["posets", "fig1.json", "--kind", "wide"], {"kappalat.labeling", "kappalat.intervals"}),
    (
        ["orders", "fig1.json", "--kind", "clo"],
        {"kappalat.labeling", "kappalat.intervals", "kappalat.orders"},
    ),
    (["gen", "--family", "fig1"], {"kappalat.generators"}),
]


@pytest.mark.parametrize(("argv", "added"), COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_adds_only_the_modules_it_runs(tmp_path, argv, added):
    (tmp_path / "fig1.json").write_text(emit_lattice(gen_fig1()), encoding="utf-8")
    # what ``python -m kappalat <argv>`` runs; main() exits 0, which atexit outlives
    program = (
        f"import runpy\nsys.argv = ['kappalat', *{argv!r}]\n"
        "runpy.run_module('kappalat', run_name='__main__', alter_sys=True)\n"
    )
    assert loaded(program, tmp_path) == CLI | added
