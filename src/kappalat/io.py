"""Lattice documents (canonical JSON) and Graphviz DOT export.

The JSON form is {"elements": [...], "covers": [[upper, lower], ...]}
with an optional "meta" string map.  Cover pairs are [upper, lower],
matching the Hasse-arrow convention that arrows point from the covering
element down to the covered one.  Canonical output lists elements in
the internal topological order and covers sorted by (upper id, lower
id), so emit o parse is byte-stable.

JSON and DOT text is written directly, not through ``json.dumps``: each
element name is encoded once, with the same ``encode_basestring`` that
``json.dumps(..., ensure_ascii=False)`` uses, and the layout is
byte-identical to ``json.dumps(document, indent=2, ensure_ascii=False)``
of the matching ``*_document`` dict.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from itertools import chain, starmap
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any

from ._bits import pick
from .errors import ParseError
from .lattice import Interval, Lattice, build_lattice

if TYPE_CHECKING:  # annotations only, so emitting a lattice loads no labeling
    from .intervals import SetFamilyPoset
    from .labeling import ArrowLabeling
    from .orders import OrderRelation


def parse_document(text: str) -> tuple[Lattice, dict[str, str] | None]:
    """Parse a lattice document; returns the lattice and its meta map, if any."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer past the int conversion limit
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(doc) - {"elements", "covers", "meta"}
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(sorted(unknown))}")
    elements = doc.get("elements")
    covers = doc.get("covers")
    # json.loads yields exact list and str objects, so type() tests decide
    # like isinstance() and let the scans over the items run in C
    if type(elements) is not list or not set(map(type, elements)) <= {str}:
        raise ParseError('"elements" must be a list of strings')
    if (
        type(covers) is not list
        or not set(map(type, covers)) <= {list}
        or not set(map(len, covers)) <= {2}
        or not set(map(type, chain.from_iterable(covers))) <= {str}
    ):
        raise ParseError('"covers" must be a list of [upper, lower] string pairs')
    meta = doc.get("meta")
    if meta is not None and (
        not isinstance(meta, dict)
        or not all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items())
    ):
        raise ParseError('"meta" must be a string-to-string map')
    try:  # one encode of every string output may echo; a lone surrogate cannot be written
        "".join(chain(elements, *(meta or {}).items())).encode()
    except UnicodeEncodeError:
        raise ParseError("names and meta strings must not hold lone surrogates") from None
    return build_lattice(elements, covers), meta


def parse_lattice(text: str) -> Lattice:
    return parse_document(text)[0]


def lattice_document(lattice: Lattice, meta: dict[str, str] | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "elements": list(lattice.names),
        "covers": [[lattice.names[u], lattice.names[l]] for u, l in lattice.covers],
    }
    if meta:
        doc["meta"] = {k: meta[k] for k in sorted(meta)}
    return doc


def _array(items: Iterable[str], depth: int, brackets: str = "[]") -> str:
    """JSON array of rendered items, laid out as json.dumps(indent=2) at depth.

    With brackets "{}" the items are the "key: value" members of an object.
    """
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}\n{'  ' * depth}{brackets[1]}" if body else brackets


def _document(fields: dict[str, Any]) -> str:
    """Top-level object as json.dumps(indent=2) writes it, plus a newline.

    A str value is already rendered; any other is an iterable of rendered
    array items.
    """
    items = (
        f"{encode_basestring(key)}: {value if isinstance(value, str) else _array(value, 1)}"
        for key, value in fields.items()
    )
    return _array(items, 0, "{}") + "\n"


# a two-item array nested at depth 2, such as one Hasse edge of a document
_PAIR = "[\n      {},\n      {}\n    ]".format


def emit_lattice(lattice: Lattice, meta: dict[str, str] | None = None) -> str:
    """The canonical document of lattice_document(lattice, meta) as text."""
    enc = list(map(encode_basestring, lattice.names))
    fields: dict[str, Any] = {
        "elements": enc,
        "covers": [_PAIR(enc[u], enc[l]) for u, l in lattice.covers],
    }
    if meta:
        items = (f"{encode_basestring(k)}: {encode_basestring(meta[k])}" for k in sorted(meta))
        fields["meta"] = _array(items, 1, "{}")
    return _document(fields)


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _digraph(name: str, statements: Iterable[str]) -> str:
    """DOT digraph laid out top to bottom, one statement per line."""
    lines = (f"  {s};\n" for s in statements)
    return "".join([f"digraph {name} {{\n  rankdir=TB;\n", *lines, "}\n"])


def emit_dot(
    lattice: Lattice,
    labeling: ArrowLabeling | None = None,
    highlight_interval: Interval | None = None,
) -> str:
    """Hasse quiver as DOT: arrows from covering to covered element.

    With a labeling, each edge carries its join-irreducible label; with
    an interval, the elements inside it are shaded.
    """
    inside = 0
    if highlight_interval is not None:
        a, b = lattice.check_interval(highlight_interval)
        inside = lattice.up[a] & lattice.down[b]
    quoted = [_quote(name) for name in lattice.names]
    statements = []
    for x in range(lattice.n):
        attrs = ""
        if (inside >> x) & 1:
            attrs = " [style=filled, fillcolor=lightgrey]"
        statements.append(f"{quoted[x]}{attrs}")
    for u, l in lattice.covers:
        label = ""
        if labeling is not None:
            label = f" [label={quoted[labeling.gamma[(u, l)]]}]"
        statements.append(f"{quoted[u]} -> {quoted[l]}{label}")
    return _digraph("lattice", statements)


def family_document(lattice: Lattice, family: SetFamilyPoset) -> dict[str, Any]:
    return {
        "kind": family.kind,
        "members": [list(pick(lattice.names, m)) for m in family.members],
        "witnesses": [
            [lattice.names[a], lattice.names[b]] for a, b in family.witnesses
        ],
        "hasse": [[u, l] for u, l in family.hasse],
    }


def emit_family_json(lattice: Lattice, family: SetFamilyPoset) -> str:
    """family_document(lattice, family) as JSON text."""
    enc = list(map(encode_basestring, lattice.names))
    return _document({
        "kind": encode_basestring(family.kind),
        "members": [_array(pick(enc, m), 2) for m in family.members],
        "witnesses": [_PAIR(enc[a], enc[b]) for a, b in family.witnesses],
        "hasse": starmap(_PAIR, family.hasse),
    })


def emit_family_dot(lattice: Lattice, family: SetFamilyPoset) -> str:
    """Poset of label sets as DOT; a member's node is named "{name,name,...}".

    Inside a member name an element name is written as-is unless it is
    empty or holds ',' or '"'; such a name is written JSON-quoted.  Bare
    names then hold no comma and no quote, so each node name stands for
    exactly one set.
    """
    parts = [encode_basestring(s) if not s or "," in s or '"' in s else s for s in lattice.names]
    nodes = [_quote("{" + ",".join(pick(parts, m)) + "}") for m in family.members]
    edges = (f"{nodes[u]} -> {nodes[l]}" for u, l in family.hasse)
    return _digraph("labelsets", chain(nodes, edges))


def relation_document(lattice: Lattice, relation: OrderRelation) -> dict[str, Any]:
    return {
        "kind": relation.kind,
        "elements": list(lattice.names),
        "hasse": [[lattice.names[u], lattice.names[l]] for u, l in relation.hasse],
    }


def emit_relation_json(lattice: Lattice, relation: OrderRelation) -> str:
    """relation_document(lattice, relation) as JSON text."""
    enc = list(map(encode_basestring, lattice.names))
    return _document({
        "kind": encode_basestring(relation.kind),
        "elements": enc,
        "hasse": [_PAIR(enc[u], enc[l]) for u, l in relation.hasse],
    })


def emit_relation_dot(lattice: Lattice, relation: OrderRelation) -> str:
    quoted = [_quote(name) for name in lattice.names]
    edges = (f"{quoted[u]} -> {quoted[l]}" for u, l in relation.hasse)
    return _digraph(f"{relation.kind}_order", chain(quoted, edges))
