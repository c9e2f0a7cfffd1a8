"""Seeded generator of the small lattice documents the ``reject`` workload checks.

Uses only ``random.Random(seed)`` and plain bitmasks, never kappalat, so
the same seed gives byte-identical documents whatever the program does.
Three kinds of input:

- ``closure``: intersection-closed set families ordered by inclusion,
  150 to 180 members.  Every finite lattice arises this way; random ones
  of this size are in practice never semidistributive, so ``check``
  exits 3 with a witness triple.
- ``poset``: random bounded posets on 222 elements.  They are in
  practice never lattices, so ``check`` exits 2 naming a pair without a
  greatest lower bound.
- ``distributive``: lattices of down-sets of random 7-element posets,
  40 to 56 members.  Distributive lattices are semidistributive, so
  ``check`` passes.

Sizes stay in narrow bands so that the work per seed is steady.
Element and cover order in each document is shuffled, so the program's
tie-breaking by input position is exercised as well.
"""

from __future__ import annotations

import json
import random

# documents per kind: few enough that each runs as a subprocess several
# times within a run, enough that the work varies little between seeds
MIX = (("closure", 16), ("poset", 16), ("distributive", 4))
LETTERS = "abcdefghij"


def _set_name(mask: int) -> str:
    return "".join(LETTERS[i] for i in range(len(LETTERS)) if (mask >> i) & 1) or "0"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _covers(below: list[int]) -> list[tuple[int, int]]:
    """(upper, lower) Hasse pairs of the order with below[x] = {y | y <= x}."""
    pairs = []
    for u, down in enumerate(below):
        strict = down & ~(1 << u)
        deeper = 0  # elements strictly below some element of strict
        for z in _bits(strict):
            deeper |= below[z] & ~(1 << z)
        pairs.extend((u, l) for l in _bits(strict & ~deeper))
    return pairs


def _family_order(family: list[int], width: int) -> list[int]:
    """below masks of a family of subsets of range(width), ordered by inclusion."""
    containing = [0] * width  # containing[i]: members holding i
    for k, s in enumerate(family):
        for i in _bits(s):
            containing[i] |= 1 << k
    everything = (1 << len(family)) - 1
    below = []
    for s in family:
        mask = everything
        for i in range(width):
            if not (s >> i) & 1:
                mask &= ~containing[i]
        below.append(mask)
    return below


def _closure(rng: random.Random) -> tuple[list[str], list[int]]:
    while True:  # sizes in a narrow band keep the work per seed steady
        family = {(1 << len(LETTERS)) - 1}
        while len(family) < 150:
            new = sum(1 << i for i in rng.sample(range(len(LETTERS)), rng.randint(3, 6)))
            # a closed family stays closed when a set and its meets with all members join it
            family |= {new & s for s in family}
        if len(family) <= 180:
            break
    members = sorted(family)
    return [_set_name(s) for s in members], _family_order(members, len(LETTERS))


def _poset(rng: random.Random) -> tuple[list[str], list[int]]:
    m = 220
    below = [1 << i for i in range(m)]
    for j in range(1, m):  # ids form a linear extension; below[i] is closed already
        for i in rng.sample(range(j), min(j, rng.randint(0, 3))):
            below[j] |= below[i]
    bottom = 1 << m
    names = [f"p{i}" for i in range(m)] + ["bot", "top"]
    below = [b | bottom for b in below] + [bottom, (1 << (m + 2)) - 1]
    return names, below


def _distributive(rng: random.Random) -> tuple[list[str], list[int]]:
    q = 7
    while True:
        below = [1 << i for i in range(q)]
        for j in range(q):
            for i in range(j):
                if rng.random() < 0.35:
                    below[j] |= below[i]
        ideals = [
            s for s in range(1 << q) if all(below[x] & ~s == 0 for x in range(q) if (s >> x) & 1)
        ]
        if 40 <= len(ideals) <= 56:
            return [_set_name(s) for s in ideals], _family_order(ideals, q)


_KINDS = {"closure": _closure, "poset": _poset, "distributive": _distributive}


def _document(rng: random.Random, kind: str, names: list[str], below: list[int]) -> str:
    order = list(range(len(names)))
    rng.shuffle(order)
    covers = [[names[u], names[l]] for u, l in _covers(below)]
    rng.shuffle(covers)
    doc = {"elements": [names[i] for i in order], "covers": covers, "meta": {"kind": kind}}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def generate(seed: int) -> list[tuple[str, str]]:
    """(document name, document text) pairs for one seed, in a fixed order."""
    rng = random.Random(seed)
    docs = []
    for kind, count in MIX:
        for k in range(count):
            names, below = _KINDS[kind](rng)
            docs.append((f"{kind}{k:03d}", _document(rng, kind, names, below)))
    return docs
