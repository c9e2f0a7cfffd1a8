"""Command-line surface.

Subcommands: check, labels, jlabel, posets, cjr, orders, compare, gen.
Exit codes: 0 success, 1 usage error, otherwise the exit_code of the
error class raised (see kappalat.errors).  Output is deterministic
byte-for-byte across runs.

A command imports the modules it runs when it runs, and the parser
gets the arguments of the named command only, so ``check`` never loads
the interval sweep, the orders or the generators.  Every library call
goes through its module's attribute (``labeling.full_labeling``,
``io.parse_lattice``), so a caller that replaces one, as a profiler
does, sees each call.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from collections.abc import Sequence
from typing import TextIO

from . import io
from ._bits import bits_of
from .errors import LatticeError, NotSemidistributive, ParseError
from .lattice import Lattice


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        """Write and flush help or usage, letting a failed write reach main().

        argparse's own version swallows the OSError and then exits 0.
        """
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def _load(path: str) -> Lattice:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from None
    return io.parse_lattice(text)


def _labeled(path: str):
    """The lattice of the document at path and its labeling."""
    from . import labeling

    lat = _load(path)
    return lat, labeling.full_labeling(lat)


def _set_str(lattice: Lattice, mask: int) -> str:
    return "{" + ", ".join(lattice.names[j] for j in bits_of(mask)) + "}"


def _cmd_check(args: argparse.Namespace) -> int:
    from . import labeling

    lat = _load(args.file)
    print(f"lattice: {lat.n} elements, {len(lat.covers)} covers")
    print(f"bottom: {lat.names[lat.bottom]}   top: {lat.names[lat.top]}")
    try:
        lab = labeling.full_labeling(lat)
    except NotSemidistributive as exc:
        # the message is the witness triple's describe()
        print(f"semidistributive: no ({exc})")
        return 3
    print("semidistributive: yes")
    jirr = list(bits_of(lab.jirr))
    mirr = list(bits_of(lab.mirr))
    print(f"jirr ({len(jirr)}): " + ", ".join(lat.names[j] for j in jirr))
    print(f"mirr ({len(mirr)}): " + ", ".join(lat.names[m] for m in mirr))
    print("kappa:")
    for j in jirr:
        print(f"  {lat.names[j]} -> {lat.names[lab.kappa[j]]}")
    return 0


def _cmd_labels(args: argparse.Namespace) -> int:
    lat, lab = _labeled(args.file)
    if args.dot:
        sys.stdout.write(io.emit_dot(lat, lab))
        return 0
    names, gamma, mu = lat.names, lab.gamma, lab.mu
    sys.stdout.writelines(
        f"{names[u]} -> {names[l]} : gamma={names[gamma[u, l]]} mu={names[mu[u, l]]}\n"
        for u, l in lat.covers
    )
    return 0


def _cmd_jlabel(args: argparse.Namespace) -> int:
    from . import intervals

    lat, lab = _labeled(args.file)
    iv = (lat.id_of(args.lower), lat.id_of(args.upper))
    mask = intervals.jlabel(lat, lab, iv)
    print(f"jlabel[{args.lower}, {args.upper}] = {_set_str(lat, mask)}")
    return 0


def _cmd_posets(args: argparse.Namespace) -> int:
    from . import intervals

    lat, lab = _labeled(args.file)
    emit = io.emit_family_dot if args.format == "dot" else io.emit_family_json
    sys.stdout.writelines(emit(lat, intervals.derived_poset(lat, lab, args.kind)))
    return 0


def _cmd_cjr(args: argparse.Namespace) -> int:
    from . import orders

    lat, lab = _labeled(args.file)
    targets = [lat.id_of(args.element)] if args.element is not None else range(lat.n)
    for x in targets:
        rep = orders.cjr(lat, lab, x)
        print(f"{lat.names[x]} = join {_set_str(lat, rep)}")
    return 0


def _cmd_orders(args: argparse.Namespace) -> int:
    from . import orders

    lat, lab = _labeled(args.file)
    emit = io.emit_relation_dot if args.format == "dot" else io.emit_relation_json
    sys.stdout.writelines(emit(lat, orders.order_poset(lat, lab, args.kind)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import orders

    lat, lab = _labeled(args.file)
    mismatch, failures = orders.compare_orders(lat, lab)
    if mismatch is None:
        print("orders coincide: yes")
    else:
        x, y = mismatch
        pair = f"{lat.names[x]}, {lat.names[y]}"
        print("orders coincide: no")
        print(f"witness: ({pair})")
        print(f"  clo_leq({pair}) = {orders.clo_leq(lat, lab, x, y)}")
        print(f"  kappa_leq({pair}) = {orders.kappa_leq(lat, lab, x, y)}")
    if failures:
        print("sufficient condition: fails at " + ", ".join(lat.names[x] for x in failures))
    else:
        print("sufficient condition: holds")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import generators

    family = generators.FAMILIES[args.family]
    if args.family in generators.PARAMETRIC:
        if args.n is None:
            raise _UsageError(f"family {args.family!r} requires --n")
        lat = family(args.n)
        meta = {"family": args.family, "n": str(args.n)}
    else:
        if args.n is not None:
            raise _UsageError(f"family {args.family!r} takes no --n")
        lat = family()
        meta = {"family": args.family}
    text = io.emit_lattice(lat, meta)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as file:
                file.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0


# name -> (function, help) of each subcommand
_COMMANDS = {
    "check": (_cmd_check, "validate a lattice and print its kappa table"),
    "labels": (_cmd_labels, "join- and meet-irreducible labels per arrow"),
    "jlabel": (_cmd_jlabel, "label set of one interval"),
    "posets": (_cmd_posets, "poset of interval label sets"),
    "cjr": (_cmd_cjr, "canonical join representations"),
    "orders": (_cmd_orders, "kappa order or core label order"),
    "compare": (_cmd_compare, "do the two derived orders coincide?"),
    "gen": (_cmd_gen, "write a built-in lattice as JSON"),
}


def _add_arguments(command: str, p: _Parser) -> None:
    """The arguments of one subcommand; its choices import their module."""
    if command != "gen":
        p.add_argument("file")
    if command == "labels":
        p.add_argument("--dot", action="store_true", help="emit a labeled DOT diagram")
    elif command == "jlabel":
        p.add_argument("--lower", required=True)
        p.add_argument("--upper", required=True)
    elif command == "posets":
        from . import intervals

        p.add_argument("--kind", choices=intervals.KINDS, required=True)
        p.add_argument("--format", choices=("json", "dot"), default="json")
    elif command == "cjr":
        p.add_argument("--element", help="restrict to one element")
    elif command == "orders":
        from . import orders

        p.add_argument("--kind", choices=orders.ORDER_KINDS, required=True)
        p.add_argument("--format", choices=("json", "dot"), default="json")
    elif command == "gen":
        from . import generators

        p.add_argument("--family", choices=sorted(generators.FAMILIES), required=True)
        p.add_argument("--n", type=int, help="size parameter for parametric families")
        p.add_argument("-o", "--output", help="output file (default stdout)")


@functools.cache
def _build_parser(command: str | None) -> _Parser:
    """The argument parser for argv naming command, built once per command.

    Every subcommand is registered with its help, but only command gets
    its arguments: argparse runs the subparser of the first argv token
    that names a command, since the top level takes no other positional.
    parse_args keeps no state, so the parser is reused.
    """
    parser = _Parser(prog="kappalat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            _add_arguments(name, p)
    return parser


def cli_main(argv: Sequence[str]) -> int:
    parser = _build_parser(next((a for a in argv if a in _COMMANDS), None))
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (_UsageError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def main() -> None:
    code = 0  # also when the reader closes stdout early, which is no error
    try:
        if sys.stdout is None:  # started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:  # from stdout: the commands report failed reads and -o writes
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # so the flush at exit stays quiet
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
            code = 1
    sys.exit(code)
