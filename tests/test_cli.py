"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import checkout_env, m3
from kappalat import (
    cli,
    emit_lattice,
    errors,
    full_labeling,
    gen_a2,
    gen_chain,
    gen_ex424,
    gen_fig1,
    gen_weak_dihedral,
    intervals,
    parse_lattice,
)
from kappalat.cli import cli_main
from kappalat.io import emit_family_dot, emit_family_json


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(emit_lattice(gen_fig1()), encoding="utf-8")
    return str(path)


@pytest.fixture
def ex424_file(tmp_path):
    path = tmp_path / "ex424.json"
    path.write_text(emit_lattice(gen_ex424()), encoding="utf-8")
    return str(path)


@pytest.fixture
def m3_file(tmp_path):
    path = tmp_path / "m3.json"
    path.write_text(emit_lattice(m3()), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_fig1(self, fig1_file, capsys):
        assert cli_main(["check", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "12 elements, 18 covers" in out
        assert "semidistributive: yes" in out
        assert "jirr (5): 1, 2, 3, 4, 5" in out
        assert "4 -> 4*" in out

    def test_not_semidistributive_exits_3(self, m3_file, capsys):
        assert cli_main(["check", m3_file]) == 3
        assert "semidistributive: no" in capsys.readouterr().out

    def test_not_a_lattice_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"elements":["a","b"],"covers":[]}', encoding="utf-8")
        assert cli_main(["check", str(path)]) == 2

    def test_bad_json_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert cli_main(["check", str(path)]) == 1

    def test_missing_file_exits_1(self):
        assert cli_main(["check", "/nonexistent/x.json"]) == 1


class TestLabels:
    def test_per_arrow_lines(self, fig1_file, capsys):
        assert cli_main(["labels", fig1_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 18
        assert "2* -> 4 : gamma=1 mu=1*" in lines

    def test_dot(self, fig1_file, capsys):
        assert cli_main(["labels", fig1_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and out.count("label=") == 18

    def test_console_entry_point(self):
        argv, env = _module_command("gen", "--family", "a2")
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert parse_lattice(proc.stdout).n == 5


class TestJlabel:
    def test_known_interval(self, fig1_file, capsys):
        assert cli_main(["jlabel", fig1_file, "--lower", "3", "--upper", "2*"]) == 0
        assert capsys.readouterr().out.strip() == "jlabel[3, 2*] = {1, 4}"

    def test_scan_is_a_usage_error(self, fig1_file, capsys):
        assert cli_main(["jlabel", fig1_file, "--lower", "3", "--upper", "2*", "--scan"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: unrecognized arguments: --scan\n")

    def test_bad_element_exits_4(self, fig1_file):
        assert cli_main(["jlabel", fig1_file, "--lower", "9", "--upper", "2*"]) == 4

    def test_bad_interval_exits_4(self, fig1_file):
        assert cli_main(["jlabel", fig1_file, "--lower", "2*", "--upper", "3"]) == 4


class TestPosets:
    def test_wide_table1(self, fig1_file, capsys):
        assert cli_main(["posets", fig1_file, "--kind", "wide"]) == 0
        doc = json.loads(capsys.readouterr().out)
        members = {"".join(m) for m in doc["members"]}
        assert members == {
            "", "1", "2", "3", "4", "5", "13", "14", "35", "125", "234", "12345",
        }
        assert len(doc["members"]) == 12

    def test_dot_format(self, fig1_file, capsys):
        assert cli_main(["posets", fig1_file, "--kind", "wide", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"{}"' in out

    def test_dot_nodes_of_names_with_commas_stay_apart(self, tmp_path, capsys):
        # {a, b} and {"a,b"} are both wide label sets of this SD lattice
        doc = {
            "elements": ["0", "a", "b", "a,b", "ab", "aX", "bX", "1"],
            "covers": [
                ["a", "0"], ["b", "0"], ["a,b", "0"], ["ab", "a"], ["ab", "b"],
                ["aX", "a"], ["aX", "a,b"], ["bX", "b"], ["bX", "a,b"],
                ["1", "ab"], ["1", "aX"], ["1", "bX"],
            ],
        }
        path = tmp_path / "comma.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_main(["posets", str(path), "--kind", "wide", "--format", "dot"]) == 0
        nodes = [line for line in capsys.readouterr().out.splitlines()[2:-1] if "->" not in line]
        assert len(nodes) == len(set(nodes)) == 8
        assert '  "{a,b}";' in nodes
        assert '  "{\\"a,b\\"}";' in nodes


class _WriteSizes(io.StringIO):
    """A stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


class TestStreamedPosets:
    """posets hands its text to stdout in chunks, none of them a large share."""

    @pytest.mark.parametrize(
        "args",
        [["--kind", "all"], ["--kind", "all", "--format", "dot"], ["--kind", "wide", "--format", "dot"]],
        ids=["all-json", "all-dot", "wide-dot"],
    )
    def test_writes_are_chunks_of_the_library_text(self, args, tmp_path, monkeypatch):
        lat = gen_weak_dihedral(60)
        path = tmp_path / "weak_dihedral60.json"
        path.write_text(emit_lattice(lat), encoding="utf-8")
        out = _WriteSizes()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli_main(["posets", str(path), *args]) == 0
        fam = intervals.derived_poset(lat, full_labeling(lat), args[1])
        emit = emit_family_dot if "dot" in args else emit_family_json
        assert out.getvalue() == "".join(emit(lat, fam))
        assert max(out.sizes) < sum(out.sizes) / 10


class TestPosetCaps:
    @pytest.fixture
    def chain40_file(self, tmp_path):
        # 820 intervals, 781 distinct label sets under --kind all
        path = tmp_path / "chain40.json"
        path.write_text(emit_lattice(gen_chain(40)), encoding="utf-8")
        return str(path)

    def test_interval_cap_refuses_before_sweep(self, chain40_file, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept past the interval cap")

        monkeypatch.setattr(intervals._backend, "interval_images", no_sweep)
        monkeypatch.setattr(intervals, "MAX_INTERVALS", 819)
        assert cli_main(["posets", chain40_file, "--kind", "all"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: 820 intervals to sweep exceeds the cap of 819\n"

    def test_interval_cap_counts_the_requested_kind(self, tmp_path, capsys, monkeypatch):
        # chain(20): 210 intervals, of which 39 are wide and 39 are ICE
        path = tmp_path / "chain20.json"
        path.write_text(emit_lattice(gen_chain(20)), encoding="utf-8")
        monkeypatch.setattr(intervals, "MAX_INTERVALS", 39)
        for kind in ("wide", "ice"):
            assert cli_main(["posets", str(path), "--kind", kind]) == 0
            assert len(json.loads(capsys.readouterr().out)["members"]) == 20
        assert cli_main(["posets", str(path), "--kind", "all"]) == 2
        assert capsys.readouterr().err == "error: 210 intervals to sweep exceeds the cap of 39\n"

        def no_sweep(*args):
            raise AssertionError("swept past the interval cap")

        monkeypatch.setattr(intervals._backend, "interval_images", no_sweep)
        monkeypatch.setattr(intervals, "MAX_INTERVALS", 38)
        for kind in ("wide", "ice"):
            assert cli_main(["posets", str(path), "--kind", kind]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: more than 38 {kind} intervals to sweep; the cap is 38\n"

    def test_label_set_cap_refuses_before_relation(self, chain40_file, capsys, monkeypatch):
        def no_relation(sets):
            raise AssertionError("built inclusion past the label set cap")

        monkeypatch.setattr(intervals, "supersets", no_relation)
        monkeypatch.setattr(intervals, "MAX_LABEL_SETS", 780)
        assert cli_main(["posets", chain40_file, "--kind", "all"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: more than 780 distinct all label sets; the cap is 780\n"

    def test_caps_are_inclusive(self, chain40_file, capsys, monkeypatch):
        monkeypatch.setattr(intervals, "MAX_INTERVALS", 820)
        monkeypatch.setattr(intervals, "MAX_LABEL_SETS", 781)
        assert cli_main(["posets", chain40_file, "--kind", "all"]) == 0
        assert len(json.loads(capsys.readouterr().out)["members"]) == 781


class TestCjrCommand:
    def test_single_element(self, fig1_file, capsys):
        assert cli_main(["cjr", fig1_file, "--element", "0*"]) == 0
        assert capsys.readouterr().out.strip() == "0* = join {1, 2, 3}"

    def test_all_elements(self, fig1_file, capsys):
        assert cli_main(["cjr", fig1_file]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 12


class TestOrders:
    def test_kappa_json(self, fig1_file, capsys):
        assert cli_main(["orders", fig1_file, "--kind", "kappa"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["hasse"]) == 22

    def test_clo_dot(self, fig1_file, capsys):
        assert cli_main(["orders", fig1_file, "--kind", "clo", "--format", "dot"]) == 0
        assert capsys.readouterr().out.count("->") == 22


class TestCompare:
    def test_divergent(self, ex424_file, capsys):
        assert cli_main(["compare", ex424_file]) == 0
        out = capsys.readouterr().out
        assert "orders coincide: no" in out
        assert "witness: (j4, x)" in out
        assert "clo_leq(j4, x) = True" in out
        assert "kappa_leq(j4, x) = False" in out
        assert "sufficient condition: fails at x" in out

    def test_coincident(self, fig1_file, capsys):
        assert cli_main(["compare", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "orders coincide: yes" in out
        assert "sufficient condition: holds" in out


def _readme_cli_options() -> dict[str, set[str]]:
    """The option strings each subcommand names in README's fenced block under ## CLI."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    named: dict[str, set[str]] = {}
    for line in block.splitlines():
        command = line.split(" #", 1)[0]
        named.setdefault(command.split()[1], set()).update(
            re.findall(r"(?<![\w-])--?[a-z][\w-]*", command)
        )
    return named


class TestReadmeCli:
    def test_every_subcommand_is_shown(self):
        assert set(_readme_cli_options()) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_options_match_the_parser(self, command):
        parser = cli._build_parser(command)
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = [a.option_strings for a in subparsers.choices[command]._actions]
        actions = [opts for opts in actions if opts and "--help" not in opts]
        named = _readme_cli_options()[command]
        # either alias of an option names it, such as -o for --output
        unnamed = [opts for opts in actions if not named.intersection(opts)]
        unknown = named.difference(*actions)
        assert (unnamed, unknown) == ([], set())


class TestGen:
    def test_families_round_trip(self, capsys):
        for family in ("fig1", "a2", "ex424", "ex426"):
            assert cli_main(["gen", "--family", family]) == 0
            lat = parse_lattice(capsys.readouterr().out)
            assert lat.n > 0

    def test_parametric(self, tmp_path, capsys):
        out_file = tmp_path / "c.json"
        assert cli_main(["gen", "--family", "chain", "--n", "4", "-o", str(out_file)]) == 0
        lat = parse_lattice(out_file.read_text(encoding="utf-8"))
        assert lat.n == 4

    def test_missing_n_exits_1(self):
        assert cli_main(["gen", "--family", "chain"]) == 1

    def test_unwanted_n_exits_1(self):
        assert cli_main(["gen", "--family", "fig1", "--n", "3"]) == 1

    def test_cap_exits_2(self):
        assert cli_main(["gen", "--family", "boolean", "--n", "13"]) == 2

    def test_gen_matches_generator(self, capsys):
        assert cli_main(["gen", "--family", "a2"]) == 0
        lat = parse_lattice(capsys.readouterr().out)
        ref = gen_a2()
        assert lat.names == ref.names and lat.covers == ref.covers


class TestDeterminism:
    def test_repeat_runs_identical(self, fig1_file, capsys):
        outputs = []
        for _ in range(2):
            for argv in (
                ["check", fig1_file],
                ["labels", fig1_file],
                ["posets", fig1_file, "--kind", "ice"],
                ["orders", fig1_file, "--kind", "clo"],
                ["compare", fig1_file],
            ):
                assert cli_main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_usage_error_exits_1(self):
        assert cli_main(["posets"]) == 1
        assert cli_main(["nonsense"]) == 1


class TestParserReuse:
    def test_parser_is_built_once(self, fig1_file, capsys):
        cli._build_parser.cache_clear()
        assert cli_main(["check", fig1_file]) == 0
        assert cli_main(["check", fig1_file]) == 0
        assert cli._build_parser.cache_info().misses == 1
        assert cli_main(["cjr", fig1_file]) == 0
        assert cli._build_parser.cache_info().misses == 2

    def test_top_level_help_does_not_depend_on_the_command(self):
        # each command's parser holds only that command's arguments
        helps = {cli._build_parser(c).format_help() for c in [None, *cli._COMMANDS]}
        assert len(helps) == 1

    def test_usage_error_after_success(self, fig1_file, capsys):
        cli._build_parser.cache_clear()
        assert cli_main(["posets", fig1_file, "--kind", "bogus"]) == 1
        fresh = capsys.readouterr()
        assert fresh.err.startswith("error: ")
        assert cli_main(["posets", fig1_file, "--kind", "wide"]) == 0
        capsys.readouterr()
        assert cli_main(["posets", fig1_file, "--kind", "bogus"]) == 1
        assert capsys.readouterr() == fresh

    def test_second_subcommand_matches_first_call(self, fig1_file, capsys):
        argv = ["orders", fig1_file, "--kind", "clo", "--format", "dot"]
        cli._build_parser.cache_clear()
        assert cli_main(argv) == 0
        first = capsys.readouterr()
        cli._build_parser.cache_clear()
        assert cli_main(["posets", fig1_file, "--kind", "ice", "--format", "json"]) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert capsys.readouterr() == first


# README's exit codes: 2 not a lattice or over a size cap, 3 not
# semidistributive, 4 invalid query, 1 parse errors and everything else
README_EXIT_CODES = {
    errors.DuplicateName: 2,
    errors.UnknownName: 2,
    errors.CyclicCovers: 2,
    errors.RedundantCover: 2,
    errors.NotALattice: 2,
    errors.NoBoundedStructure: 2,
    errors.TooLarge: 2,
    errors.NotSemidistributive: 3,
    errors.InvalidInterval: 4,
    errors.NotAnArrow: 4,
    errors.NotJoinIrreducible: 4,
    errors.NotMeetIrreducible: 4,
    errors.UnknownElement: 4,
    errors.ParseError: 1,
    errors.InternalInvariant: 1,
    errors.LatticeError: 1,
}
ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.LatticeError)
]


class _AdHocCapError(errors.TooLarge):
    pass


class _AdHocQueryError(errors.UnknownElement):
    pass


class TestExitCodes:
    def _exit_code(self, exc_type, fig1_file, capsys, monkeypatch):
        def fail(path):
            raise exc_type("boom")

        monkeypatch.setattr(cli, "_load", fail)
        code = cli_main(["check", fig1_file])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: boom\n"
        return code

    @pytest.mark.parametrize("exc_type", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_error_class_exits_with_readme_code(
        self, exc_type, fig1_file, capsys, monkeypatch
    ):
        assert exc_type in README_EXIT_CODES, f"{exc_type.__name__} has no documented exit code"
        code = self._exit_code(exc_type, fig1_file, capsys, monkeypatch)
        assert code == README_EXIT_CODES[exc_type]

    @pytest.mark.parametrize(
        "exc_type, code", [(_AdHocCapError, 2), (_AdHocQueryError, 4)], ids=["cap", "query"]
    )
    def test_subclass_inherits_its_base_code(self, exc_type, code, fig1_file, capsys, monkeypatch):
        assert self._exit_code(exc_type, fig1_file, capsys, monkeypatch) == code


class TestUnreadableInputs:
    """Unreadable input files and an unwritable output: exit 1, one error line."""

    def _assert_one_error_line(self, argv, capsys):
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"elements": ["\xe9"], "covers": []}'.encode("latin-1"))
        err = self._assert_one_error_line(["check", str(path)], capsys)
        assert err == f"error: cannot read {path}: not UTF-8 (byte 15)\n"

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        err = self._assert_one_error_line(["check", str(path)], capsys)
        assert err == "error: not valid JSON: nested too deeply\n"

    def test_integer_past_the_conversion_limit(self, tmp_path, capsys):
        path = tmp_path / "bigint.json"
        path.write_text('{"elements": [' + "1" * 5000 + '], "covers": []}', encoding="utf-8")
        err = self._assert_one_error_line(["check", str(path)], capsys)
        assert err.startswith("error: not valid JSON: ")

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        err = self._assert_one_error_line(
            ["gen", "--family", "fig1", "-o", str(target)], capsys
        )
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["labels"],
            ["labels", "--dot"],
            ["jlabel", "--lower", "a", "--upper", "a"],
            ["posets", "--kind", "all"],
            ["cjr"],
            ["orders", "--kind", "kappa"],
            ["compare"],
        ],
        ids=["check", "labels", "labels-dot", "jlabel", "posets", "cjr", "orders", "compare"],
    )
    def test_lone_surrogate_in_a_name(self, argv, tmp_path, capsys):
        # valid JSON, but the name cannot be written to a UTF-8 stdout
        path = tmp_path / "surrogate.json"
        path.write_text('{"elements": ["a\\ud800"], "covers": []}', encoding="utf-8")
        err = self._assert_one_error_line([argv[0], str(path), *argv[1:]], capsys)
        assert err == "error: names and meta strings must not hold lone surrogates\n"


# help requests, which argparse writes and then exits on
HELP_ARGVS = [["-h"], ["check", "-h"]]


def _module_command(*args):
    """A python -m kappalat command line and the environment that imports this package."""
    return [sys.executable, "-m", "kappalat", *args], checkout_env()


class TestClosedPipe:
    """A reader that closes stdout early: exit 0 and nothing on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [["cjr"], ["posets", "--kind", "wide"], ["posets", "--kind", "wide", "--format", "dot"]],
        ids=["cjr", "posets", "posets-dot"],
    )
    def test_exit_0_and_quiet(self, argv, tmp_path):
        # every output (about 190 kB, 440 kB and 54 MB) outgrows a pipe buffer,
        # so the command is still writing when the reader closes its end
        path = tmp_path / "weak_dihedral300.json"
        path.write_text(emit_lattice(gen_weak_dihedral(300)), encoding="utf-8")
        command, env = _module_command(argv[0], str(path), *argv[1:])
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")

    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=["h", "check-h"])
    def test_help_exit_0_and_quiet(self, argv):
        command, env = _module_command(*argv)
        for unbuffered in ("", "1"):
            env["PYTHONUNBUFFERED"] = unbuffered
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            # closed long before the interpreter is up, so the help text meets a closed pipe
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (0, b"")


class TestUnwritableStdout:
    """A stdout that takes no output: exit 1 and one error line, no traceback."""

    ARGVS = [
        ["check", "{fig1}"],
        ["gen", "--family", "fig1"],
        ["posets", "{fig1}", "--kind", "wide", "--format", "dot"],
        *HELP_ARGVS,
    ]
    IDS = ["check", "gen", "posets-dot", "h", "check-h"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", ARGVS, ids=IDS)
    def test_full_device(self, argv, fig1_file):
        command, env = _module_command(*(a.format(fig1=fig1_file) for a in argv))
        reason = os.strerror(errno.ENOSPC)
        # buffered, the flush fails; unbuffered, the write itself
        for unbuffered in ("", "1"):
            env["PYTHONUNBUFFERED"] = unbuffered
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    command, stdout=full, stderr=subprocess.PIPE, text=True, env=env
                )
            assert (proc.returncode, proc.stderr) == (1, f"error: cannot write output: {reason}\n")

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 with a POSIX shell")
    @pytest.mark.parametrize("argv", ARGVS, ids=IDS)
    def test_closed_stdout(self, argv, fig1_file):
        command, env = _module_command(*(a.format(fig1=fig1_file) for a in argv))
        # the shell runs the command with fd 1 closed, so sys.stdout is None
        shell = ["sh", "-c", 'exec "$0" "$@" >&-', *command]
        proc = subprocess.run(shell, stderr=subprocess.PIPE, text=True, env=env)
        reason = os.strerror(errno.EBADF)
        assert (proc.returncode, proc.stderr) == (1, f"error: cannot write output: {reason}\n")
