"""Finite bounded lattices presented by their Hasse quiver.

A lattice is built once from (names, cover pairs), validated, and then
queried through pure methods; Lattice is a named tuple like the result
records.  Elements are addressed by dense ids assigned in a
deterministic linear extension from the bottom; element sets are int
bitmasks over those ids (see kappalat._bits).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import starmap
from operator import and_, eq, gt
from typing import NamedTuple, NoReturn

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


class Lattice(NamedTuple):
    """Validated finite bounded lattice; immutable after construction.

    up[x] / down[x] are bitmasks of {y | x <= y} / {y | y <= x}, both
    including x itself.  covers holds (upper, lower) id pairs and is
    exactly the transitive reduction of the order; cover_ups[x] /
    cover_downs[x] are the upper / lower covers of x in ascending id
    order.  Ids form a linear extension: x < y in the lattice implies
    id(x) < id(y).

    A named tuple like the result records: it unpacks into its six
    fields, supports _replace, and compares and hashes as the plain
    tuple of its fields.  cover_ups and cover_downs follow from covers,
    so two lattices that build_lattice returns are equal exactly when
    their names, up, down and covers are.
    """

    names: tuple
    up: tuple
    down: tuple
    covers: tuple
    cover_ups: tuple
    cover_downs: tuple

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
            return self.names.index(name)
        except ValueError:
            raise UnknownElement(f"no element named {name!r}") from None

    def leq(self, a: int, b: int) -> bool:
        return bool((self.up[self.check_element(a)] >> self.check_element(b)) & 1)

    def join(self, xs: Iterable[int]) -> int:
        """Least upper bound: the lowest bit of the AND of the up-sets.

        Ids form a linear extension, so the least id of the common
        up-set is its least element.  The join of the empty set is the
        bottom.
        """
        ups = map(self.up.__getitem__, map(self.check_element, xs))
        return lowest_bit(reduce(and_, ups, self.up[0]))

    def meet(self, xs: Iterable[int]) -> int:
        """Greatest lower bound: the highest bit of the AND of the down-sets.

        The meet of the empty set is the top.
        """
        downs = map(self.down.__getitem__, map(self.check_element, xs))
        return highest_bit(reduce(and_, downs, self.down[-1]))

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

    def check_element(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise UnknownElement(f"no element with id {x!r}")
        return x

    def check_interval(self, iv: Interval) -> Interval:
        a, b = iv
        if not (0 <= a < self.n and 0 <= b < self.n and self.up[a] >> b & 1):
            raise InvalidInterval(
                f"[{self.names[a] if 0 <= a < self.n else a}, "
                f"{self.names[b] if 0 <= b < self.n else b}] is not an interval"
            )
        return iv

    def star_down(self, x: int) -> int:
        """Join of everything strictly below x (its lower covers suffice)."""
        return self.join(self.cover_downs[self.check_element(x)])

    def star_up(self, x: int) -> int:
        """Meet of everything strictly above x (its upper covers suffice)."""
        return self.meet(self.cover_ups[self.check_element(x)])

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

    Three checks on the order raise in this order: the first implied
    cover in (upper, lower) order, named with the least element between
    its ends; missing bounds; and the lex-first pair without a meet.
    One pass over the pairs of lower covers (_backend.first_missing_meet)
    decides the first and the last.  If it passes, no cover is implied
    and, once the bounds hold, every meet exists, so the bounds check is
    the only one that can raise.  If it fails, the three checks run one
    after another.  A failing pair is either nested, which makes a cover
    implied, or lacks a meet, which, when no cover is implied and the
    bounds hold, makes the order a bounded non-lattice, where
    first_failing_pair finds the lex-first pair.  So either way the
    error, its message and its witness are those of the three checks in
    sequence.
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
        order = _topological_order(names, cover_pairs)
        # reindex so ids form a linear extension from the bottom
        old_to_new = [0] * n
        for new, old in enumerate(order):
            old_to_new[old] = new
        names = [names[old] for old in order]
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

    # a failing pair is a non-empty tuple; two `is not None` tests here
    # add ~100 kB to the peak memory of compiling this module
    failing = _backend.first_missing_meet(down, cover_downs)
    if failing:
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

    if failing:
        a, b = _backend.first_failing_pair(down, cover_downs)
        raise NotALattice(
            f"elements {names[a]!r} and {names[b]!r} have no greatest lower bound"
        )

    return Lattice(
        names=tuple(names),
        up=tuple(up),
        down=tuple(down),
        covers=tuple(cover_pairs),
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


def _topological_order(names: list[str], cover_pairs: list[tuple[int, int]]) -> list[int]:
    """Kahn sort from the bottom; ties broken by input position.

    If the covers hold a cycle, CyclicCovers names one.  Every unplaced
    element has an unplaced lower cover (its pending count is positive),
    so the walk from the unplaced element of least input position down
    through first unplaced lower covers repeats an element, and the
    stretch between the two visits is a cycle.
    """
    n = len(names)
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
        lowers: list[list[int]] = [[] for _ in range(n)]
        for u, l in cover_pairs:
            lowers[u].append(l)
        x = next(x for x in range(n) if pending[x])
        step: dict[int, int] = {}  # position of each element on the walk
        while x not in step:
            step[x] = len(step)
            x = next(l for l in lowers[x] if pending[l])
        cycle = list(step)[step[x]:] + [x]
        raise CyclicCovers("covers form a cycle: " + " > ".join(repr(names[x]) for x in cycle))
    return order
