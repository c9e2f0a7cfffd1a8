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
of the matching document dict: ``family_document`` or
``relation_document`` here, and for a lattice the dict of its elements,
covers and meta, which the test suite builds.

The writers yield their text in document order, so no poset is held as
one text: emit_family_* and emit_relation_* return the chunks,
emit_lattice and emit_dot their join.  A chunk is an array item such as
a member, a DOT statement, or a whole array of pairs (covers, witnesses,
Hasse edges), which is one % over a repeated pair template with the
names as its arguments.  So a label poset takes a constant number of
Python operations per member and per Hasse edge.  A member's text is its
parent's text (the member less its highest element) plus one separator
and one item, see _joined.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any

from ._bits import pick
from .errors import ParseError
from .lattice import Lattice, build_lattice

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


def _array(items: Iterable[str]) -> Iterator[str]:
    """JSON array of rendered items, laid out as json.dumps(indent=2) at depth 1."""
    lead = "[\n    "
    for item in items:
        yield lead + item
        lead = ",\n    "
    yield "[]" if lead[0] == "[" else "\n  ]"


def _document(fields: dict[str, Any]) -> Iterator[str]:
    """Top-level object as json.dumps(indent=2) writes it, plus a newline.

    A str value is already rendered; any other is an iterable of rendered array items.
    """
    lead = "{\n  "
    for key, value in fields.items():
        yield f"{lead}{encode_basestring(key)}: "
        yield from (value,) if isinstance(value, str) else _array(value)
        lead = ",\n  "
    yield "\n}\n"


# a nonempty array nested at depth 2, from its items joined by ",\n      "
_MEMBER = "[\n      {}\n    ]".format
# a two-item array nested at depth 2, such as one Hasse edge of a document
_PAIR = "[\n      %s,\n      %s\n    ]"


def _pairs(pairs: Sequence[tuple[int, int]], names: Sequence[str] | None = None) -> tuple[str, ...]:
    """The items of an array of pairs at depth 1 as one item, () if none; ends are ints or names."""
    ends = chain.from_iterable(pairs)
    args = tuple(ends if names is None else map(names.__getitem__, ends))
    return (",\n    ".join([_PAIR] * len(pairs)) % args,) if pairs else ()


def emit_lattice(lattice: Lattice, meta: dict[str, str] | None = None) -> str:
    """The canonical lattice document as text.

    Elements in id order, covers as [upper, lower] name pairs in cover
    order, and the meta map, if nonempty, with its keys sorted.
    """
    enc = list(map(encode_basestring, lattice.names))
    fields: dict[str, Any] = {
        "elements": enc,
        "covers": _pairs(lattice.covers, enc),
    }
    if meta:
        items = (f"{encode_basestring(k)}: {encode_basestring(meta[k])}" for k in sorted(meta))
        fields["meta"] = "{\n    " + ",\n    ".join(items) + "\n  }"
    return "".join(_document(fields))


def _escape(name: str) -> str:
    """The inside of a DOT string; escaping distributes over concatenation."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def _quote(name: str) -> str:
    return '"' + _escape(name) + '"'


def _digraph(name: str, nodes: Iterable[str], edges: Iterable[str]) -> Iterator[str]:
    """DOT digraph laid out top to bottom: a line per node, then the finished edge lines."""
    lines = (f"  {node};\n" for node in nodes)
    return chain((f"digraph {name} {{\n  rankdir=TB;\n",), lines, edges, ("}\n",))


def emit_dot(lattice: Lattice, labeling: ArrowLabeling | None = None) -> str:
    """Hasse quiver as DOT, arrows from covering to covered element, labeled by gamma if given."""
    quoted = [_quote(name) for name in lattice.names]
    if labeling is None:
        edges = (f"  {quoted[u]} -> {quoted[l]};\n" for u, l in lattice.covers)
    else:
        edges = (
            f"  {quoted[u]} -> {quoted[l]} [label={quoted[labeling.gamma[u, l]]}];\n"
            for u, l in lattice.covers
        )
    return "".join(_digraph("lattice", quoted, edges))


def family_document(lattice: Lattice, family: SetFamilyPoset) -> dict[str, Any]:
    return {
        "kind": family.kind,
        "members": [list(pick(lattice.names, m)) for m in family.members],
        "witnesses": [
            [lattice.names[a], lattice.names[b]] for a, b in family.witnesses
        ],
        "hasse": [[u, l] for u, l in family.hasse],
    }


def _joined(items: Sequence[str], sep: str, masks: Iterable[int]) -> Iterator[str]:
    """Yield sep.join(pick(items, m)) for each m in masks, each from an earlier text.

    Let t be the highest bit of a nonzero m.  The bits of m below t come
    first in pick's ascending order, so m's text is its parent m - {t}'s
    text + sep + items[t], or items[t] alone when the parent is empty.
    A mask whose parent was not seen earlier gets the pick join itself;
    repeats and 0 reuse a stored text.  Canonical families list sets by
    size, so parents that are members come first.
    """
    texts = {0: ""}
    for m in masks:
        if m not in texts:
            t = m.bit_length() - 1
            rest = m ^ 1 << t
            texts[m] = (
                sep.join(pick(items, m)) if rest not in texts
                else texts[rest] + sep + items[t] if rest else items[t]
            )
        yield texts[m]


def emit_family_json(lattice: Lattice, family: SetFamilyPoset) -> Iterator[str]:
    """family_document(lattice, family) as JSON text, in chunks."""
    enc = list(map(encode_basestring, lattice.names))
    return _document({
        "kind": encode_basestring(family.kind),
        # an encoded name is never "", so only the empty set's text is empty
        "members": (_MEMBER(t) if t else "[]" for t in _joined(enc, ",\n      ", family.members)),
        "witnesses": _pairs(family.witnesses, enc),
        "hasse": _pairs(family.hasse),
    })


def emit_family_dot(lattice: Lattice, family: SetFamilyPoset) -> Iterator[str]:
    """Poset of label sets as DOT chunks; a member's node is named "{name,name,...}".

    Inside a member name an element name is written as-is unless it is
    empty or holds ',' or '"'; such a name is written JSON-quoted.  Bare
    names then hold no comma and no quote, so each node name stands for
    exactly one set.
    """
    parts = [
        _escape(encode_basestring(s) if not s or "," in s or '"' in s else s)
        for s in lattice.names
    ]
    texts = list(_joined(parts, ",", family.members))
    edges = (f'  "{{{texts[u]}}}" -> "{{{texts[l]}}}";\n' for u, l in family.hasse)
    return _digraph("labelsets", ('"{' + t + '}"' for t in texts), edges)


def relation_document(lattice: Lattice, relation: OrderRelation) -> dict[str, Any]:
    return {
        "kind": relation.kind,
        "elements": list(lattice.names),
        "hasse": [[lattice.names[u], lattice.names[l]] for u, l in relation.hasse],
    }


def emit_relation_json(lattice: Lattice, relation: OrderRelation) -> Iterator[str]:
    """relation_document(lattice, relation) as JSON text, in chunks."""
    enc = list(map(encode_basestring, lattice.names))
    return _document({
        "kind": encode_basestring(relation.kind),
        "elements": enc,
        "hasse": _pairs(relation.hasse, enc),
    })


def emit_relation_dot(lattice: Lattice, relation: OrderRelation) -> Iterator[str]:
    quoted = [_quote(name) for name in lattice.names]
    edges = (f"  {quoted[u]} -> {quoted[l]};\n" for u, l in relation.hasse)
    return _digraph(f"{relation.kind}_order", quoted, edges)
