"""Interval label sets and the derived posets of label families.

jlabel[a, b] collects the join-irreducibles j with j <= b and
kappa(j) >= a; equivalently (and this is checked exhaustively in the
test suite) the join-irreducible labels of the Hasse arrows lying
inside [a, b].  Restricting the interval family to wide or ICE
intervals and ordering the distinct label sets by inclusion produces
the three derived posets this package exists to compute.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import _backend
from ._bits import bits_of, mask_of
from .lattice import Interval, Lattice
from .labeling import ArrowLabeling

KINDS = ("all", "wide", "ice")


def jlabel(lattice: Lattice, labeling: ArrowLabeling, iv: Interval) -> int:
    """Label set of [a, b] by the membership rule: j <= b and kappa(j) >= a."""
    a, b = lattice.check_interval(iv)
    down_b = lattice.down[b]
    up_a = lattice.up[a]
    mask = 0
    for j in bits_of(labeling.jirr):
        if (down_b >> j) & 1 and (up_a >> labeling.kappa[j]) & 1:
            mask |= 1 << j
    return mask


def jlabel_scan(lattice: Lattice, labeling: ArrowLabeling, iv: Interval) -> int:
    """Label set of [a, b] by scanning arrows: gamma over covers inside [a, b]."""
    a, b = lattice.check_interval(iv)
    down_b = lattice.down[b]
    up_a = lattice.up[a]
    mask = 0
    for (upper, lower), j in labeling.gamma.items():
        if (up_a >> lower) & 1 and (down_b >> upper) & 1:
            mask |= 1 << j
    return mask


def down_jlabel(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """Labels of the arrows starting at x (one per lower cover)."""
    return mask_of(labeling.gamma[(x, y)] for y in lattice.covers_down(x))


def up_jlabel(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """Labels of the arrows ending at x (one per upper cover)."""
    return mask_of(labeling.gamma[(u, x)] for u in lattice.covers_up(x))


def is_wide_interval(lattice: Lattice, iv: Interval) -> bool:
    """b equals a joined with all covers of a that stay below b."""
    a, b = lattice.check_interval(iv)
    w = a
    for c in lattice.covers_up(a):
        if lattice.leq(c, b):
            w = lattice._join2(w, c)
    return w == b


def is_ice_interval(lattice: Lattice, iv: Interval) -> bool:
    """b lies below a joined with all covers of a (unfiltered)."""
    a, b = lattice.check_interval(iv)
    bound = a
    for c in lattice.covers_up(a):
        bound = lattice._join2(bound, c)
    return lattice.leq(b, bound)


def supersets(sets: Sequence[int]) -> list[int]:
    """For each set, the bitmask of indices k with sets[k] a superset of it.

    Built from label columns: col[p] marks the sets containing p, and the
    supersets of a set are the AND of the columns of its elements.
    """
    full = (1 << len(sets)) - 1
    col: dict[int, int] = {}
    for k, s in enumerate(sets):
        bit = 1 << k
        for p in bits_of(s):
            col[p] = col.get(p, 0) | bit
    up_rel = []
    for s in sets:
        acc = full
        for p in bits_of(s):
            acc &= col[p]
        up_rel.append(acc)
    return up_rel


@dataclass(frozen=True)
class SetFamilyPoset:
    """Distinct label sets of an interval family, ordered by inclusion.

    members are element bitmasks in canonical order (cardinality, then
    lexicographic over the member ids); hasse holds (upper, lower) index
    pairs into members and is the transitive reduction of inclusion.
    witnesses[i] is the first interval (in lex enumeration order) whose
    label set is members[i]; later intervals may map to the same set.
    """

    kind: str
    members: tuple[int, ...]
    hasse: tuple[tuple[int, int], ...]
    witnesses: tuple[Interval, ...]

    def index_of(self, mask: int) -> int:
        return self.members.index(mask)


def derived_poset(lattice: Lattice, labeling: ArrowLabeling, kind: str) -> SetFamilyPoset:
    """Sweep the intervals of the requested kind and assemble the label poset."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    n = lattice.n
    jirr_ids = list(bits_of(labeling.jirr))
    pos = {j: p for p, j in enumerate(jirr_ids)}

    # compressed masks over join-irreducible positions: one AND per interval
    belowj = [0] * n
    kge = [0] * n
    for j in jirr_ids:
        bit = 1 << pos[j]
        for b in bits_of(lattice.up[j]):
            belowj[b] |= bit
        for a in bits_of(lattice.down[labeling.kappa[j]]):
            kge[a] |= bit

    images = _backend.interval_images(
        n, lattice.up, lattice.down, belowj, kge, lattice._cover_ups, kind
    )

    expanded: list[tuple[int, Interval]] = []
    for pmask, witness in images.items():
        expanded.append((mask_of(jirr_ids[p] for p in bits_of(pmask)), witness))
    expanded.sort(key=lambda e: (e[0].bit_count(), tuple(bits_of(e[0]))))
    members = tuple(mask for mask, _ in expanded)
    witnesses = tuple(w for _, w in expanded)

    # members sorted by cardinality form a linear extension of inclusion
    up_rel = supersets(members)
    hasse = _backend.transitive_reduction(len(members), up_rel)
    return SetFamilyPoset(kind=kind, members=members, hasse=tuple(hasse), witnesses=witnesses)
