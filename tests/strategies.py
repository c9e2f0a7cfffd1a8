"""Hypothesis strategies for random lattices and random bounded posets.

Each draws an order on elements 0..n-1 and returns it as (n, covers) with
(upper, lower) cover pairs.  Element ids are listed in a linear
extension, so `build` keeps them as the lattice ids and the oracles in
helpers.py can address elements by position.  Drawing uses nothing
from kappalat, so the inputs do not depend on the code they test.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from kappalat import Lattice, build_lattice


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _hasse(below: list[int]) -> list[tuple[int, int]]:
    """Cover pairs of a strict order given by transitive lower-set masks."""
    covers = []
    for x, strict in enumerate(below):
        deeper = 0  # elements strictly below some element of strict
        for z in _bits(strict):
            deeper |= below[z]
        covers.extend((x, y) for y in _bits(strict & ~deeper))
    return covers


def _inclusion_below(members: list[int]) -> list[int]:
    """Strict lower-set masks of a list of sets ordered by inclusion."""
    return [
        sum(1 << j for j, t in enumerate(members) if t != s and t & ~s == 0)
        for s in members
    ]


@st.composite
def lattices(draw) -> tuple[int, list[tuple[int, int]]]:
    """An intersection-closed family of subsets ordered by inclusion.

    Every finite lattice is isomorphic to one; the universe is always in
    the family (the empty intersection), so it is a bounded lattice.
    A 5-point universe keeps it at most 32 elements for the O(n^4)
    oracles.  Generators of density 3/4 keep the intersections apart;
    about a fifth of the drawn lattices are not semidistributive.
    """
    count = draw(st.integers(4, 9))
    rng = draw(st.randoms(use_true_random=True))
    family = {0b11111}
    for _ in range(count):
        g = rng.getrandbits(5) | rng.getrandbits(5)
        family |= {g & s for s in family}
    members = sorted(family, key=lambda s: (s.bit_count(), s))
    return len(members), _hasse(_inclusion_below(members))


@st.composite
def bounded_posets(draw) -> tuple[int, list[tuple[int, int]]]:
    """A random order on inner elements between a bottom 0 and a top n-1.

    Each inner element j is placed above each earlier inner element with
    probability 0.35, so ids are a linear extension.  Most such posets
    are not lattices.
    """
    m = draw(st.integers(8, 14))
    rng = draw(st.randoms(use_true_random=True))
    n = m + 2
    below = [0] * n
    for j in range(1, m + 1):
        below[j] = 1
        for i in range(1, j):
            if rng.random() < 0.35:
                below[j] |= (1 << i) | below[i]
    below[n - 1] = (1 << (n - 1)) - 1
    return n, _hasse(below)


def random_bounded_poset(rng: random.Random, m: int, max_lower: int) -> list[tuple[int, int]]:
    """Covers of a bottom 0, m inner elements and a top m + 1.

    Inner element j lies above up to max_lower earlier inner elements
    drawn at random, and above what lies below them.  Such posets are
    almost never lattices once m reaches a few dozen.
    """
    below = [0] * (m + 2)
    for j in range(1, m + 1):
        below[j] = 1
        for i in rng.sample(range(1, j), min(j - 1, rng.randint(0, max_lower))):
            below[j] |= (1 << i) | below[i]
    below[m + 1] = (1 << (m + 1)) - 1
    return _hasse(below)


@st.composite
def large_orders(draw) -> tuple[int, list[tuple[int, int]]]:
    """A bounded order on 30 to 250 elements; about two in three are lattices.

    Shaped like the benchmark's seeded inputs: random bounded posets
    whose inner elements have up to four lower covers (rarely lattices),
    and intersection-closed families on an 8-point universe (lattices),
    from half of which one to three inner members are dropped.  Dropping
    members keeps the bounds but often loses a meet deep in the order,
    where a lattice test that checks too little would miss it.
    """
    rng = draw(st.randoms(use_true_random=True))
    if draw(st.booleans()):
        m = draw(st.integers(28, 248))
        return m + 2, random_bounded_poset(rng, m, draw(st.integers(1, 4)))
    # generators of 3 to 6 points reach at most 248 sets, all of size <= 6 or 8
    target = draw(st.integers(33, 240))
    family = {0xFF}
    while len(family) < target:
        g = sum(1 << i for i in rng.sample(range(8), rng.randint(3, 6)))
        family |= {g & s for s in family}
    members = sorted(family, key=lambda s: (s.bit_count(), s))
    if draw(st.booleans()):
        for s in rng.sample(members[1:-1], rng.randint(1, 3)):
            members.remove(s)
    return len(members), _hasse(_inclusion_below(members))


@st.composite
def with_implied_cover(draw, orders) -> tuple[int, list[tuple[int, int]]]:
    """An order drawn from orders, with one implied pair added to its covers.

    The pair (upper, lower) is drawn from the comparable pairs that are
    not covers, so some element lies strictly between its ends; an order
    without such a pair comes back unchanged.
    """
    n, covers = draw(orders)
    below = [0] * n  # strict lower sets; ids are a linear extension
    for upper, lower in sorted(covers):
        below[upper] |= below[lower] | (1 << lower)
    given = set(covers)
    implied = [(x, y) for x in range(n) for y in _bits(below[x]) if (x, y) not in given]
    if implied:
        covers = [*covers, draw(st.sampled_from(implied))]
    return n, covers


def build(n: int, covers: list[tuple[int, int]]) -> Lattice:
    """build_lattice on elements named "0".."n-1" in id order."""
    names = [str(i) for i in range(n)]
    return build_lattice(names, [(names[u], names[l]) for u, l in covers])
