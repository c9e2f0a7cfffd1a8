"""Hypothesis strategies for random lattices and random bounded posets.

Both draw an order on elements 0..n-1 and return it as (n, covers) with
(upper, lower) cover pairs.  Element ids are listed in a linear
extension, so `build` keeps them as the lattice ids and the oracles in
helpers.py can address elements by position.  Drawing uses nothing
from kappalat, so the inputs do not depend on the code they test.
"""

from __future__ import annotations

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
        for y in _bits(strict):
            if not any((below[z] >> y) & 1 for z in _bits(strict)):
                covers.append((x, y))
    return covers


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
    below = [
        sum(1 << j for j, t in enumerate(members) if t != s and t & ~s == 0)
        for s in members
    ]
    return len(members), _hasse(below)


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


def build(n: int, covers: list[tuple[int, int]]) -> Lattice:
    """build_lattice on elements named "0".."n-1" in id order."""
    names = [str(i) for i in range(n)]
    return build_lattice(names, [(names[u], names[l]) for u, l in covers])
