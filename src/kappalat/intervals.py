"""Interval label sets and the derived posets of label families.

jlabel[a, b] collects the join-irreducibles j with j <= b and
kappa(j) >= a; equivalently (and this is checked exhaustively in the
test suite) the join-irreducible labels of the Hasse arrows lying
inside [a, b].  Restricting the interval family to wide or ICE
intervals and ordering the distinct label sets by inclusion produces
the three derived posets this package exists to compute, each a
SetFamilyPoset named tuple.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from operator import and_, or_
from typing import NamedTuple

from . import _backend
from ._bits import bits_of, lowest_bit, mask_of, pick
from .errors import InternalInvariant, TooLarge
from .lattice import Interval, Lattice
from .labeling import ArrowLabeling

KINDS = ("all", "wide", "ice")

# Desk-scale caps for derived_poset.  The sweep visits every interval of the
# requested kind, and inclusion is an m x m bit relation over the m distinct
# label sets.  weak_sym(6) (31,711 intervals, 21,932 sets), weak_dihedral(200)
# (40,599 and 40,198) and boolean(12) (531,441 and 4,096) fit; chain(5000)
# "all" (12.5 M intervals) and chain(1000) "all" (499,501 sets) do not, while
# chain(5000) "wide" sweeps 9,999.
MAX_INTERVALS = 2_000_000
MAX_LABEL_SETS = 50_000

# _DIGIT_OF_BIT[r] maps a byte to b"1" if its bit r is set, else b"0"
_DIGIT_OF_BIT = [
    bytes.maketrans(bytes(range(256)), (b"0" * (1 << r) + b"1" * (1 << r)) * (128 >> r))
    for r in range(8)
]


def label_tables(
    lattice: Lattice, labeling: ArrowLabeling, jbit: dict[int, int]
) -> tuple[list[int], list[int]]:
    """The two halves of every interval label set: jlabel[a, b] = belowj[b] & kge[a].

    belowj[b] marks the join-irreducibles j <= b and kge[a] those with
    kappa(j) >= a, each j as the mask bit jbit[j] (1 << j for element
    masks, one bit per position for masks compressed to the
    join-irreducibles).
    belowj is or_below over the bits of the join-irreducibles, kge is
    or_above over the bit of kappa_dual(a) at each meet-irreducible a, so
    each costs one OR per cover.
    """
    n = lattice.n
    kappa_dual = labeling.kappa_dual
    belowj = lattice.or_below([jbit.get(b, 0) for b in range(n)])
    for a, j in kappa_dual.items():
        if j not in jbit:
            raise InternalInvariant(f"kappa_dual({lattice.names[a]!r}) is not join-irreducible")
    kge = lattice.or_above([jbit[kappa_dual[a]] if a in kappa_dual else 0 for a in range(n)])
    return belowj, kge


def jlabel(lattice: Lattice, labeling: ArrowLabeling, iv: Interval) -> int:
    """Label set of [a, b] by the membership rule: j <= b and kappa(j) >= a.

    Walks only the join-irreducibles below b.
    """
    a, b = lattice.check_interval(iv)
    up_a, kappa = lattice.up[a], labeling.kappa
    return mask_of(j for j in bits_of(lattice.down[b] & labeling.jirr) if up_a >> kappa[j] & 1)


def down_jlabel(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """Labels of the arrows starting at x (one per lower cover)."""
    return mask_of(labeling.gamma[(x, y)] for y in lattice.cover_downs[lattice.check_element(x)])


def up_jlabel(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """Labels of the arrows ending at x (one per upper cover)."""
    return mask_of(labeling.gamma[(u, x)] for u in lattice.cover_ups[lattice.check_element(x)])


def is_wide_interval(lattice: Lattice, iv: Interval) -> bool:
    """b equals a joined with all covers of a that stay below b."""
    a, b = lattice.check_interval(iv)
    return lattice.join([a, *(c for c in lattice.cover_ups[a] if lattice.leq(c, b))]) == b


def is_ice_interval(lattice: Lattice, iv: Interval) -> bool:
    """b lies below a joined with all covers of a (unfiltered)."""
    a, b = lattice.check_interval(iv)
    return lattice.leq(b, lattice.join((a, *lattice.cover_ups[a])))


def interval_tops(lattice: Lattice, kind: str) -> Sequence[int]:
    """tops[a] = the mask of the b for which [a, b] is an interval of kind.

    all: up[a] itself, no copy.  ICE: the b in up[a] below the bound
    a v (all upper covers of a), read as the lowest bit of the AND of
    their up-sets with up[a].  Wide: the joins a v VS over the sets S
    of upper covers of a.  If b = a v VS, the covers of a below b include
    S, and with a they join to at most b, hence to exactly b: [a, b]
    passes is_wide_interval.
    Conversely a wide b is a v VS for S the covers of a below b.  Those
    joins are the closure of {a} under joining with each cover in turn:
    one join per reached element per cover.

    Raises TooLarge when the tops hold more than MAX_INTERVALS intervals:
    for all, from the interval count before anything is built; for wide,
    as soon as the running total of the closures passes the cap.
    """
    up = lattice.up
    if kind == "all":
        count = lattice.interval_count()
        if count > MAX_INTERVALS:
            raise TooLarge(f"{count} intervals to sweep exceeds the cap of {MAX_INTERVALS}")
        return up
    if kind == "ice":
        down = lattice.down
        tops = [
            up[a] & down[lowest_bit(reduce(and_, (up[c] for c in uppers), up[a]))]
            for a, uppers in enumerate(lattice.cover_ups)
        ]
        if sum(t.bit_count() for t in tops) > MAX_INTERVALS:
            raise _too_many(kind)
        return tops
    tops = []
    total = 0
    for a, uppers in enumerate(lattice.cover_ups):
        reached = 1 << a
        for c in uppers:
            uc = up[c]
            for w in bits_of(reached):
                common = up[w] & uc  # its lowest bit is w v c
                reached |= common & -common
        tops.append(reached)
        total += reached.bit_count()
        if total > MAX_INTERVALS:
            raise _too_many(kind)
    return tops


def _too_many(kind: str) -> TooLarge:
    return TooLarge(
        f"more than {MAX_INTERVALS} {kind} intervals to sweep; the cap is {MAX_INTERVALS}"
    )


def supersets(sets: Sequence[int]) -> list[int]:
    """For each set, the bitmask of indices k with sets[k] a superset of it.

    sets are int bitmasks over any ground set, in any order, repeats
    allowed (derived_poset passes label sets compressed to
    join-irreducible positions, order_poset element masks).  Built from
    label columns: col[p] marks the sets containing p, and the supersets
    of S are sup(S) = the AND of col[q] over q in S (all sets for S
    empty).  The columns come from transposing the sets' bytes, eight
    positions per byte column.

    Most rows cost one AND: if S is nonempty with lowest bit p and its
    parent S - {p} came earlier, sup(S) = sup(S - {p}) & col[p] by the
    identity above.  Only a set whose parent has not been seen is ANDed
    over all its columns.  The shortcut reads rows already built, so it
    holds for any input order; in derived_poset's order (cardinality
    first) every parent in the family comes before its child.
    """
    full = (1 << len(sets)) - 1
    union = reduce(or_, sets, 0)
    width = (union.bit_length() + 7) // 8
    rows = b"".join([s.to_bytes(width, "little") for s in sets])
    col = [0] * union.bit_length()
    for p in bits_of(union):
        # byte p // 8 of every set, as "0"/"1" digits with set 0 last
        digits = rows[p >> 3 :: width].translate(_DIGIT_OF_BIT[p & 7])
        col[p] = int(digits[::-1], 2)
    up = []
    row_of: dict[int, int] = {}  # each set seen so far -> its row
    for s in sets:
        low = s & -s
        parent = row_of.get(s ^ low) if s else None
        if parent is None:
            row = reduce(and_, pick(col, s), full)
        else:
            row = parent & col[low.bit_length() - 1]
        row_of[s] = row
        up.append(row)
    return up


class SetFamilyPoset(NamedTuple):
    """Distinct label sets of an interval family, ordered by inclusion.

    members are element bitmasks (over lattice ids) in canonical order:
    cardinality, then lexicographic over the ascending member ids.  hasse
    holds (upper, lower) index pairs into members and is the transitive
    reduction of inclusion.
    witnesses[i] is the first interval (in lex enumeration order) whose
    label set is members[i]; later intervals may map to the same set.
    derived_poset reads each member off its witness [a, b] as
    belowj[b] & kge[a] (see label_tables), since that is the label set
    of [a, b].
    """

    kind: str
    members: tuple[int, ...]
    hasse: tuple[tuple[int, int], ...]
    witnesses: tuple[Interval, ...]


def derived_poset(lattice: Lattice, labeling: ArrowLabeling, kind: str) -> SetFamilyPoset:
    """Sweep the intervals of the requested kind and assemble the label poset.

    Raises TooLarge, before the sweep, when there are more than
    MAX_INTERVALS intervals of the kind (see interval_tops), and, before
    inclusion is built, when the sweep finds more than MAX_LABEL_SETS
    distinct label sets (it stops at the first set past the cap).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    tops = interval_tops(lattice, kind)
    jirr_ids = list(bits_of(labeling.jirr))
    # compressed masks, one AND per interval: the p-th join-irreducible in
    # id order is bit w - 1 - p, so the lowest id is the highest bit
    w = len(jirr_ids)
    jbit = {j: 1 << (w - 1 - p) for p, j in enumerate(jirr_ids)}
    belowj, kge = label_tables(lattice, labeling, jbit)

    images = _backend.interval_images(belowj, kge, tops, MAX_LABEL_SETS)
    if len(images) > MAX_LABEL_SETS:
        raise TooLarge(
            f"more than {MAX_LABEL_SETS} distinct {kind} label sets; the cap is {MAX_LABEL_SETS}"
        )

    # Canonical order: cardinality, then lex over ascending ids.  For sets
    # A != B of one cardinality, A comes first iff min(A ^ B) lies in A;
    # min(A ^ B) is the highest bit of the compressed masks' XOR, so A comes
    # first iff its mask is the greater.  Hence a descending sort, then a
    # stable sort by cardinality.
    order = sorted(images, reverse=True)
    order.sort(key=int.bit_count)
    # sets sorted by cardinality form a linear extension of inclusion
    hasse = _backend.transitive_reduction(supersets(order))
    witnesses = list(map(images.__getitem__, order))
    # each member as an element mask: the label set of its witness [a, b]
    belowj, kge = label_tables(lattice, labeling, {j: 1 << j for j in jirr_ids})
    return SetFamilyPoset(
        kind=kind,
        members=tuple([belowj[b] & kge[a] for a, b in witnesses]),
        hasse=tuple(hasse),
        witnesses=tuple(witnesses),
    )
