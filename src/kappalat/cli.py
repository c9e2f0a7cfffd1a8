"""Command-line surface.

Subcommands: check, labels, jlabel, posets, cjr, orders, compare, gen.
Exit codes: 0 success, 1 usage error, otherwise the exit_code of the
error class raised (see kappalat.errors).  Output is deterministic
byte-for-byte across runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from . import generators, intervals, io, labeling
from . import orders as orders_mod
from ._bits import bits_of
from .errors import LatticeError, NotSemidistributive, ParseError
from .lattice import Lattice


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _load(path: str) -> Lattice:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from None
    return io.parse_lattice(text)


def _set_str(lattice: Lattice, mask: int) -> str:
    return "{" + ", ".join(lattice.names[j] for j in bits_of(mask)) + "}"


def _cmd_check(args: argparse.Namespace) -> int:
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
    lat = _load(args.file)
    lab = labeling.full_labeling(lat)
    if args.dot:
        sys.stdout.write(io.emit_dot(lat, lab))
        return 0
    names, gamma, mu = lat.names, lab.gamma, lab.mu
    sys.stdout.write("".join([
        f"{names[u]} -> {names[l]} : gamma={names[gamma[u, l]]} mu={names[mu[u, l]]}\n"
        for u, l in lat.covers
    ]))
    return 0


def _cmd_jlabel(args: argparse.Namespace) -> int:
    lat = _load(args.file)
    lab = labeling.full_labeling(lat)
    iv = (lat.id_of(args.lower), lat.id_of(args.upper))
    fn = intervals.jlabel_scan if args.scan else intervals.jlabel
    mask = fn(lat, lab, iv)
    print(f"jlabel[{args.lower}, {args.upper}] = {_set_str(lat, mask)}")
    return 0


def _cmd_posets(args: argparse.Namespace) -> int:
    lat = _load(args.file)
    lab = labeling.full_labeling(lat)
    fam = intervals.derived_poset(lat, lab, args.kind)
    if args.format == "dot":
        sys.stdout.write(io.emit_family_dot(lat, fam))
    else:
        sys.stdout.write(io.emit_family_json(lat, fam))
    return 0


def _cmd_cjr(args: argparse.Namespace) -> int:
    lat = _load(args.file)
    lab = labeling.full_labeling(lat)
    targets = [lat.id_of(args.element)] if args.element is not None else range(lat.n)
    for x in targets:
        rep = orders_mod.cjr(lat, lab, x)
        print(f"{lat.names[x]} = join {_set_str(lat, rep)}")
    return 0


def _cmd_orders(args: argparse.Namespace) -> int:
    lat = _load(args.file)
    lab = labeling.full_labeling(lat)
    rel = orders_mod.order_poset(lat, lab, args.kind)
    if args.format == "dot":
        sys.stdout.write(io.emit_relation_dot(lat, rel))
    else:
        sys.stdout.write(io.emit_relation_json(lat, rel))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    lat = _load(args.file)
    lab = labeling.full_labeling(lat)
    mismatch, failures = orders_mod.compare_orders(lat, lab)
    if mismatch is None:
        print("orders coincide: yes")
    else:
        x, y = mismatch
        pair = f"{lat.names[x]}, {lat.names[y]}"
        print("orders coincide: no")
        print(f"witness: ({pair})")
        print(f"  clo_leq({pair}) = {orders_mod.clo_leq(lat, lab, x, y)}")
        print(f"  kappa_leq({pair}) = {orders_mod.kappa_leq(lat, lab, x, y)}")
    if failures:
        print("sufficient condition: fails at " + ", ".join(lat.names[x] for x in failures))
    else:
        print("sufficient condition: holds")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
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
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = _Parser(prog="kappalat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a lattice and print its kappa table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("labels", help="join- and meet-irreducible labels per arrow")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit a labeled DOT diagram")
    p.set_defaults(func=_cmd_labels)

    p = sub.add_parser("jlabel", help="label set of one interval")
    p.add_argument("file")
    p.add_argument("--lower", required=True)
    p.add_argument("--upper", required=True)
    p.add_argument("--scan", action="store_true", help="use the arrow-scan method")
    p.set_defaults(func=_cmd_jlabel)

    p = sub.add_parser("posets", help="poset of interval label sets")
    p.add_argument("file")
    p.add_argument("--kind", choices=intervals.KINDS, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_posets)

    p = sub.add_parser("cjr", help="canonical join representations")
    p.add_argument("file")
    p.add_argument("--element", help="restrict to one element")
    p.set_defaults(func=_cmd_cjr)

    p = sub.add_parser("orders", help="kappa order or core label order")
    p.add_argument("file")
    p.add_argument("--kind", choices=orders_mod.ORDER_KINDS, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("compare", help="do the two derived orders coincide?")
    p.add_argument("file")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gen", help="write a built-in lattice as JSON")
    p.add_argument("--family", choices=sorted(generators.FAMILIES), required=True)
    p.add_argument("--n", type=int, help="size parameter for parametric families")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def main() -> None:
    code = 0  # also when the reader closes stdout early, which is no error
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # fd 1 goes to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
