"""Finite bounded lattices presented by their Hasse quiver.

A lattice is built once from (names, cover pairs), validated, and then
queried through pure methods; Lattice is an immutable slotted class
compared by value.  Elements are addressed by dense ids assigned in a
deterministic linear extension from the bottom; element sets are int
bitmasks over those ids (see kappalat._bits).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import starmap
from operator import and_, attrgetter, eq, gt
from typing import NoReturn

from . import _backend
from ._bits import bits_of, highest_bit, lowest_bit
from .errors import (
    CyclicCovers,
    DuplicateName,
    InternalInvariant,
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

# the fields Lattice equality and hashing read
_compared = attrgetter("names", "up", "down", "covers")


class Lattice:
    """Validated finite bounded lattice; immutable after construction.

    up[x] / down[x] are bitmasks of {y | x <= y} / {y | y <= x}, both
    including x itself.  covers holds (upper, lower) id pairs and is
    exactly the transitive reduction of the order; cover_ups[x] /
    cover_downs[x] are the upper / lower covers of x in ascending id
    order.  Ids form a linear extension: x < y in the lattice implies
    id(x) < id(y).

    A slotted class whose fields refuse assignment and deletion.  Two
    lattices are equal, with equal hashes, when their names, up, down
    and covers are; the other fields are derived from those.
    """

    __slots__ = ("names", "up", "down", "covers", "_index", "cover_ups", "cover_downs")

    # parameters unannotated: their annotations add ~130 kB to the peak
    # memory of compiling this module, the peak of an import from source
    def __init__(self, names, up, down, covers, _index, cover_ups, cover_downs) -> None:
        fields = (names, up, down, covers, _index, cover_ups, cover_downs)
        for name, value in zip(Lattice.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(
            f"cannot assign {type(value).__name__} to {name!r}: Lattice is immutable"
        )

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete {name!r}: Lattice is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Lattice:
            return NotImplemented
        return _compared(self) == _compared(other)

    def __hash__(self) -> int:
        return hash(_compared(self))

    def __reduce__(self) -> tuple[type[Lattice], tuple[object, ...]]:
        """Pickle and copy through __init__, since __setattr__ refuses."""
        return Lattice, tuple(map(self.__getattribute__, Lattice.__slots__))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def bottom(self) -> int:
        """Id 0: ids form a linear extension and the bottom is unique."""
        return 0

    @property
    def top(self) -> int:
        """Id n - 1: ids form a linear extension and the top is unique."""
        return len(self.names) - 1

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"no element named {name!r}") from None

    def leq(self, a: int, b: int) -> bool:
        return bool((self.up[a] >> b) & 1)

    def join(self, xs: Iterable[int]) -> int:
        """Least upper bound: the lowest bit of the AND of the up-sets.

        Ids form a linear extension, so the least id of the common
        up-set is its least element.  The join of the empty set is the
        bottom.
        """
        return lowest_bit(reduce(and_, map(self.up.__getitem__, xs), self.up[0]))

    def meet(self, xs: Iterable[int]) -> int:
        """Greatest lower bound: the highest bit of the AND of the down-sets.

        The meet of the empty set is the top.
        """
        return highest_bit(reduce(and_, map(self.down.__getitem__, xs), self.down[-1]))

    def or_below(self, seeds: Sequence[int]) -> list[int]:
        """out[x] = OR of seeds[y] over all y <= x; one OR per cover."""
        return _or_closure(seeds, self.cover_downs, range(self.n))

    def or_above(self, seeds: Sequence[int]) -> list[int]:
        """out[x] = OR of seeds[y] over all y >= x; one OR per cover."""
        return _or_closure(seeds, self.cover_ups, range(self.n - 1, -1, -1))

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
        return self.join(self.cover_downs[x])

    def star_up(self, x: int) -> int:
        """Meet of everything strictly above x (its upper covers suffice)."""
        return self.meet(self.cover_ups[x])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Lattice({self.n} elements, {len(self.covers)} covers)"


def build_lattice(names: Sequence[str], covers: Iterable[tuple[str, str]]) -> Lattice:
    """Construct and validate a lattice from element names and Hasse covers.

    Cover pairs are (upper, lower): the upper element covers the lower
    one.  The input must be exactly a Hasse quiver; transitively implied
    pairs are rejected rather than dropped.

    When every cover goes from a later input position to an earlier one
    (as in canonical documents), the input order is already the order
    _topological_order would return, so the Kahn sort and the reindexing
    are skipped.  The smallest-ready-first Kahn order is then the
    identity, by induction on the step k: once 0..k-1 are placed, every
    lower cover of k, being earlier, is placed, so k is ready, and every
    ready element is unplaced, hence at least k.
    """
    names = list(names)
    if not names:
        raise NoBoundedStructure("empty element list has no top or bottom")
    n = len(names)
    if n > MAX_ELEMENTS:
        raise TooLarge(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")
    index = dict(zip(names, range(n)))
    if len(index) != n:
        _raise_first_defect(names, index, ())
    covers = list(covers)
    try:
        cover_pairs = [(index[upper], index[lower]) for upper, lower in covers]
    except KeyError:
        cover_pairs = []
    if (
        len(cover_pairs) != len(covers)
        or len(set(cover_pairs)) != len(cover_pairs)
        or any(starmap(eq, cover_pairs))
    ):
        _raise_first_defect(names, index, covers)

    if not all(starmap(gt, cover_pairs)):
        order = _topological_order(n, cover_pairs)
        # reindex so ids form a linear extension from the bottom
        old_to_new = [0] * n
        for new, old in enumerate(order):
            old_to_new[old] = new
        names = [names[old] for old in order]
        index = dict(zip(names, range(n)))
        cover_pairs = [(old_to_new[u], old_to_new[l]) for u, l in cover_pairs]

    # in (upper, lower) order each u meets its lowers and each l its
    # uppers in ascending order, so one sort makes both cover lists ascending
    cover_pairs.sort()
    cover_downs: list[list[int]] = [[] for _ in range(n)]
    cover_ups: list[list[int]] = [[] for _ in range(n)]
    for u, l in cover_pairs:
        cover_downs[u].append(l)
        cover_ups[l].append(u)
    own = [1 << x for x in range(n)]
    up = _or_closure(own, cover_ups, range(n - 1, -1, -1))
    down = _or_closure(own, cover_downs, range(n))

    for u, l in cover_pairs:
        if up[l] & down[u] != (1 << u) | (1 << l):
            z = names[lowest_bit(up[l] & down[u] & ~(1 << u) & ~(1 << l))]
            raise RedundantCover(
                f"cover {names[u]!r} > {names[l]!r} is implied via {z!r}"
            )

    minimal = cover_downs.count([])
    maximal = cover_ups.count([])
    if minimal != 1 or maximal != 1:
        raise NoBoundedStructure(
            f"{minimal} minimal and {maximal} maximal elements; need exactly one of each"
        )

    missing = _backend.first_missing_meet(down, cover_ups, cover_downs)
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
        _index=index,
        cover_ups=tuple(map(tuple, cover_ups)),
        cover_downs=tuple(map(tuple, cover_downs)),
    )


def _or_closure(
    seeds: Sequence[int], links: Sequence[Sequence[int]], ids: Iterable[int]
) -> list[int]:
    """out[x] = seeds[x] OR the out[y] of every y in links[x], for x in ids order.

    ids must reach every y in links[x] before x.  With the lower covers
    as links and ids ascending, out[x] is the OR of the seeds of the
    down-set of x (every y < x lies below a lower cover of x); with the
    upper covers and ids descending, that of the up-set.
    """
    out = [0] * len(seeds)
    for x in ids:
        mask = seeds[x]
        for y in links[x]:
            mask |= out[y]
        out[x] = mask
    return out


def _raise_first_defect(
    names: Sequence[str], index: dict[str, int], covers: Sequence[tuple[str, str]]
) -> NoReturn:
    """Raise the error for the first defect of the input, scanned item by item.

    A repeated name comes first; then, cover by cover in input order, an
    unknown upper or lower name, a self cover or a repeated pair.  Runs
    only after a bulk test in build_lattice failed.
    """
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicateName(f"element name {name!r} occurs more than once")
        seen.add(name)
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
    raise InternalInvariant("a bulk input test failed but the scan finds no defect")


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
        raise CyclicCovers(f"cover digraph has a cycle through {n - len(order)} elements")
    return order
