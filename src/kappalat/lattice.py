"""Finite bounded lattices presented by their Hasse quiver.

A lattice is built once from (names, cover pairs), validated, and then
queried through pure methods.  Elements are addressed by dense ids
assigned in a deterministic linear extension from the bottom; element
sets are int bitmasks over those ids (see kappalat._bits).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from . import _backend
from ._bits import bits_of, highest_bit, lowest_bit
from .errors import (
    CyclicCovers,
    DuplicateName,
    InvalidInterval,
    NoBoundedStructure,
    NotALattice,
    RedundantCover,
    TooLarge,
    UnknownElement,
    UnknownName,
)

MAX_ELEMENTS = 5000

Interval = tuple[int, int]


@dataclass(frozen=True)
class Lattice:
    """Validated finite bounded lattice; immutable after construction.

    up[x] / down[x] are bitmasks of {y | x <= y} / {y | y <= x}, both
    including x itself.  covers holds (upper, lower) id pairs and is
    exactly the transitive reduction of the order.  Ids form a linear
    extension: x < y in the lattice implies id(x) < id(y).
    """

    names: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    bottom: int
    top: int
    _index: dict[str, int] = field(repr=False, compare=False)
    _cover_ups: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    _cover_downs: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"no element named {name!r}") from None

    def name(self, x: int) -> str:
        return self.names[x]

    def leq(self, a: int, b: int) -> bool:
        return bool((self.up[a] >> b) & 1)

    def join(self, xs: Iterable[int]) -> int:
        """Least upper bound; join of the empty set is the bottom."""
        acc = -1
        for x in xs:
            acc = x if acc < 0 else self._join2(acc, x)
        return self.bottom if acc < 0 else acc

    def meet(self, xs: Iterable[int]) -> int:
        """Greatest lower bound; meet of the empty set is the top."""
        acc = -1
        for x in xs:
            acc = x if acc < 0 else self._meet2(acc, x)
        return self.top if acc < 0 else acc

    def _join2(self, x: int, y: int) -> int:
        return lowest_bit(self.up[x] & self.up[y])

    def _meet2(self, x: int, y: int) -> int:
        return highest_bit(self.down[x] & self.down[y])

    def covers_up(self, x: int) -> tuple[int, ...]:
        return self._cover_ups[x]

    def covers_down(self, x: int) -> tuple[int, ...]:
        return self._cover_downs[x]

    def intervals(self) -> Iterable[Interval]:
        """All pairs (a, b) with a <= b, in lex (a, b) order."""
        for a in range(self.n):
            for b in bits_of(self.up[a]):
                yield (a, b)

    def interval_count(self) -> int:
        return sum(m.bit_count() for m in self.up)

    def check_interval(self, iv: Interval) -> Interval:
        a, b = iv
        if not (0 <= a < self.n and 0 <= b < self.n and self.leq(a, b)):
            raise InvalidInterval(
                f"[{self.names[a] if 0 <= a < self.n else a}, "
                f"{self.names[b] if 0 <= b < self.n else b}] is not an interval"
            )
        return iv

    def star_down(self, x: int) -> int:
        """Join of everything strictly below x (its lower covers suffice)."""
        return self.join(self._cover_downs[x])

    def star_up(self, x: int) -> int:
        """Meet of everything strictly above x (its upper covers suffice)."""
        return self.meet(self._cover_ups[x])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Lattice({self.n} elements, {len(self.covers)} covers)"


def build_lattice(names: Sequence[str], covers: Iterable[tuple[str, str]]) -> Lattice:
    """Construct and validate a lattice from element names and Hasse covers.

    Cover pairs are (upper, lower): the upper element covers the lower
    one.  The input must be exactly a Hasse quiver; transitively implied
    pairs are rejected rather than dropped.
    """
    names = list(names)
    if not names:
        raise NoBoundedStructure("empty element list has no top or bottom")
    if len(names) > MAX_ELEMENTS:
        raise TooLarge(f"{len(names)} elements exceeds the cap of {MAX_ELEMENTS}")
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateName(f"element name {name!r} occurs more than once")
        seen.add(name)

    index = {name: i for i, name in enumerate(names)}
    cover_pairs: list[tuple[int, int]] = []
    pair_set: set[tuple[int, int]] = set()
    for upper, lower in covers:
        if upper not in index:
            raise UnknownName(f"cover references unknown element {upper!r}")
        if lower not in index:
            raise UnknownName(f"cover references unknown element {lower!r}")
        u, l = index[upper], index[lower]
        if u == l:
            raise CyclicCovers(f"element {upper!r} covers itself")
        if (u, l) in pair_set:
            raise RedundantCover(f"cover {upper!r} > {lower!r} given twice")
        pair_set.add((u, l))
        cover_pairs.append((u, l))

    order = _topological_order(len(names), cover_pairs)
    # reindex so ids form a linear extension from the bottom
    old_to_new = [0] * len(names)
    for new, old in enumerate(order):
        old_to_new[old] = new
    names = [names[old] for old in order]
    cover_pairs = sorted((old_to_new[u], old_to_new[l]) for u, l in cover_pairs)

    n = len(names)
    up = [1 << x for x in range(n)]
    cover_downs: list[list[int]] = [[] for _ in range(n)]
    cover_ups: list[list[int]] = [[] for _ in range(n)]
    for u, l in cover_pairs:
        cover_ups[l].append(u)
        cover_downs[u].append(l)
    for x in range(n - 1, -1, -1):
        for u in cover_ups[x]:
            up[x] |= up[u]
    down = [1 << x for x in range(n)]
    for x in range(n):
        for l in cover_downs[x]:
            down[x] |= down[l]

    for u, l in cover_pairs:
        between = up[l] & down[u] & ~(1 << u) & ~(1 << l)
        if between:
            z = names[lowest_bit(between)]
            raise RedundantCover(
                f"cover {names[u]!r} > {names[l]!r} is implied via {z!r}"
            )

    bottoms = [x for x in range(n) if down[x] == 1 << x]
    tops = [x for x in range(n) if up[x] == 1 << x]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NoBoundedStructure(
            f"{len(bottoms)} minimal and {len(tops)} maximal elements; need exactly one of each"
        )
    bottom, top = bottoms[0], tops[0]

    mirr = 0
    for x in range(n):
        if len(cover_ups[x]) == 1:
            mirr |= 1 << x
    missing = _backend.first_missing_meet(n, up, down, mirr)
    if missing is not None:
        a, b = missing
        raise NotALattice(
            f"elements {names[a]!r} and {names[b]!r} have no greatest lower bound"
        )

    return Lattice(
        names=tuple(names),
        up=tuple(up),
        down=tuple(down),
        covers=tuple(cover_pairs),
        bottom=bottom,
        top=top,
        _index={name: i for i, name in enumerate(names)},
        _cover_ups=tuple(tuple(sorted(c)) for c in cover_ups),
        _cover_downs=tuple(tuple(sorted(c)) for c in cover_downs),
    )


def _topological_order(n: int, cover_pairs: list[tuple[int, int]]) -> list[int]:
    """Kahn sort from the bottom; ties broken by input position."""
    pending = [0] * n  # number of lower covers not yet placed
    ups: list[list[int]] = [[] for _ in range(n)]
    for u, l in cover_pairs:
        pending[u] += 1
        ups[l].append(u)
    ready = [x for x in range(n) if pending[x] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        x = heapq.heappop(ready)
        order.append(x)
        for u in ups[x]:
            pending[u] -= 1
            if pending[u] == 0:
                heapq.heappush(ready, u)
    if len(order) != n:
        stuck = sorted(set(range(n)) - set(order))
        raise CyclicCovers(f"cover digraph has a cycle through {len(stuck)} elements")
    return order
