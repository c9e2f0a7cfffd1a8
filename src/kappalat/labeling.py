"""Semidistributivity, irreducible elements, arrow labels, and the kappa map.

Every Hasse arrow a -> b of a semidistributive lattice carries a
join-irreducible label (the least x with b v x = a) and a meet-irreducible
label (the greatest x with a ^ x = b); restricting those labelings to the
arrows under join-irreducibles yields the kappa bijection jirr <-> mirr.
The results, SdViolation and ArrowLabeling, are named tuples.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _backend
from ._bits import bits_of, mask_of
from .errors import (
    InternalInvariant,
    NotAnArrow,
    NotJoinIrreducible,
    NotMeetIrreducible,
    NotSemidistributive,
)
from .lattice import Lattice


class SdViolation(NamedTuple):
    """A triple breaking one of the pairwise semidistributive laws."""

    law: str  # "join" or "meet"
    a: int
    x: int
    y: int

    def describe(self, lattice: Lattice) -> str:
        names = lattice.names
        return (
            f"{self.law} law fails at a={names[self.a]!r}, "
            f"x={names[self.x]!r}, y={names[self.y]!r}"
        )


def semidistributive_witness(lattice: Lattice) -> SdViolation | None:
    """First violating triple of either pairwise law, or None if none exists."""
    hit = _backend.sd_witness(lattice.up, lattice.down, lattice.covers)
    if hit is None:
        return None
    return SdViolation(*hit)


def join_irreducibles(lattice: Lattice) -> int:
    """Bitmask of elements x with star_down(x) != x (exactly one lower cover)."""
    return mask_of(x for x, lowers in enumerate(lattice.cover_downs) if len(lowers) == 1)


def meet_irreducibles(lattice: Lattice) -> int:
    """Bitmask of elements x with star_up(x) != x (exactly one upper cover)."""
    return mask_of(x for x, uppers in enumerate(lattice.cover_ups) if len(uppers) == 1)


def _require_arrow(lattice: Lattice, arrow: tuple[int, int]) -> None:
    upper, lower = map(lattice.check_element, arrow)
    if lower not in lattice.cover_downs[upper]:
        raise NotAnArrow(
            f"{lattice.names[upper]!r} does not cover {lattice.names[lower]!r}"
        )


def join_label(lattice: Lattice, arrow: tuple[int, int]) -> int:
    """The minimum j of {x | lower v x = upper}; completely join-irreducible.

    The candidate set of a semidistributive lattice contains its own meet;
    a missing minimum therefore certifies non-semidistributivity
    independently of the triple test.

    j has one lower cover j_*, and lower ^ j = j_*, with no check.  j is
    not the bottom, and every y < j lies outside the set, so lower v y,
    between lower and its cover upper, is lower: y <= lower.  Two lower
    covers p, q of j would give j = p v q <= lower.  So the y < j are
    down[j_*], all below lower, and lower ^ j < j is j_*.
    """
    upper, lower = arrow
    _require_arrow(lattice, arrow)
    j = _backend.cover_join_label(lattice.up, lattice.down, upper, lower)
    if j < 0:
        raise NotSemidistributive(
            f"{{x | {lattice.names[lower]} v x = {lattice.names[upper]}}} has no minimum"
        )
    return j


def meet_label(lattice: Lattice, arrow: tuple[int, int]) -> int:
    """The maximum m of {x | upper ^ x = lower}; completely meet-irreducible.

    Dually to join_label, m has one upper cover m^* and upper v m = m^*,
    with no check: every y > m lies above upper, two upper covers of m
    would meet to m >= upper, and upper v m > m is m^*.
    """
    upper, lower = arrow
    _require_arrow(lattice, arrow)
    m = _backend.cover_meet_label(lattice.up, lattice.down, upper, lower)
    if m < 0:
        raise NotSemidistributive(
            f"{{x | {lattice.names[upper]} ^ x = {lattice.names[lower]}}} has no maximum"
        )
    return m


def kappa(lattice: Lattice, j: int) -> int:
    """max {x | j ^ x = star_down(j)} for a completely join-irreducible j."""
    downs = lattice.cover_downs[lattice.check_element(j)]
    if len(downs) != 1:
        raise NotJoinIrreducible(f"{lattice.names[j]!r} is not completely join-irreducible")
    return meet_label(lattice, (j, downs[0]))


def kappa_dual(lattice: Lattice, m: int) -> int:
    """min {x | m v x = star_up(m)} for a completely meet-irreducible m."""
    ups = lattice.cover_ups[lattice.check_element(m)]
    if len(ups) != 1:
        raise NotMeetIrreducible(f"{lattice.names[m]!r} is not completely meet-irreducible")
    return join_label(lattice, (ups[0], m))


class ArrowLabeling(NamedTuple):
    """Both arrow labelings plus the kappa tables of one lattice.

    gamma/mu are keyed by (upper, lower) cover pairs; kappa maps each
    join-irreducible id to its meet-irreducible partner and kappa_dual
    is the inverse.  jirr/mirr are element bitmasks.
    """

    gamma: dict[tuple[int, int], int]
    mu: dict[tuple[int, int], int]
    kappa: dict[int, int]
    kappa_dual: dict[int, int]
    jirr: int
    mirr: int


def full_labeling(lattice: Lattice) -> ArrowLabeling:
    """Label every Hasse arrow and tabulate kappa and its inverse kappa_dual.

    The lattice is semidistributive iff every arrow has both labels, so
    a missing label (arrow_labels gives None) is what sends it to
    semidistributive_witness for the violating triple named in
    NotSemidistributive.

    Once every arrow has both labels, each cover (u, l) has gamma(u, l) =
    min {x | l v x = u} and mu(u, l) = max {x | u ^ x = l}, and the
    proofs of join_label and meet_label give gamma one lower cover
    gamma_*, met by l, and mu one upper cover mu^*, joined by u.  So
    these identities hold with no check:

    1. kappa(j) = mu(j, j_*) is meet-irreducible; dually, gamma(m^*, m)
       is join-irreducible.
    2. gamma(K^*, K) = j for K = kappa(j).  j <= K would make j ^ K = j,
       so j is not below K.  K is the largest x with j ^ x = j_*, so
       K^* > K has j ^ K^* != j_*, and j ^ K^*, in [j_*, j], is j: j <= K^*.
       Hence K v j = K^*, and gamma(K^*, K) <= j.  A smaller one would lie
       below j_* <= K and join K to K, not to K^*.
    3. Dually, kappa(gamma(m^*, m)) = m.  So kappa is a bijection jirr ->
       mirr whose inverse is m -> gamma(m^*, m), and kappa_dual is built
       as kappa inverted, keyed by ascending m.
    4. mu(u, l) = kappa(gamma(u, l)).  Let j = gamma(u, l), K = kappa(j)
       and m = mu(u, l).  l ^ j = j_* puts l <= K, and u <= K would put
       j <= K, so u ^ K, in [l, u), is l, and K <= m.  j <= m would give
       u = l v j <= m, so j ^ m, in [l ^ j, j), is j_*, and m <= K.

    With them, j ^ kappa(j) = j_* and j v kappa(j) = kappa(j)^*: kappa(j)
    = mu(j, j_*) is in {x | j ^ x = j_*}, and by 2, j = gamma(K^*, K) is
    in {x | K v x = K^*}.
    """
    up, down, covers = lattice.up, lattice.down, lattice.covers
    labels = _backend.arrow_labels(up, down, covers)
    if labels is None:
        witness = semidistributive_witness(lattice)
        if witness is None:
            raise InternalInvariant("an arrow lacks a label but no semidistributive law fails")
        raise NotSemidistributive(witness.describe(lattice))
    gamma_list, mu_list = labels
    mu = dict(zip(covers, mu_list))
    cover_downs = lattice.cover_downs
    jirr = join_irreducibles(lattice)
    kappa_table = {j: mu[(j, cover_downs[j][0])] for j in bits_of(jirr)}
    return ArrowLabeling(
        gamma=dict(zip(covers, gamma_list)),
        mu=mu,
        kappa=kappa_table,
        kappa_dual=dict(sorted(zip(kappa_table.values(), kappa_table))),
        jirr=jirr,
        mirr=meet_irreducibles(lattice),
    )
