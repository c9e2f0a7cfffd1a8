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
    upper, lower = arrow
    if lower not in lattice.cover_downs[upper]:
        raise NotAnArrow(
            f"{lattice.names[upper]!r} does not cover {lattice.names[lower]!r}"
        )


def join_label(lattice: Lattice, arrow: tuple[int, int]) -> int:
    """The minimum of {x | lower v x = upper}; completely join-irreducible.

    The candidate set of a semidistributive lattice contains its own meet;
    a missing minimum therefore certifies non-semidistributivity
    independently of the triple test.
    """
    upper, lower = arrow
    _require_arrow(lattice, arrow)
    j = _backend.cover_join_label(lattice.up, lattice.down, upper, lower)
    if j < 0:
        raise NotSemidistributive(
            f"{{x | {lattice.names[lower]} v x = {lattice.names[upper]}}} has no minimum"
        )
    if lattice.meet((lower, j)) != lattice.star_down(j) or len(lattice.cover_downs[j]) != 1:
        raise InternalInvariant(
            f"join label {lattice.names[j]!r} of {lattice.names[upper]!r} -> "
            f"{lattice.names[lower]!r} is not a join-irreducible meeting lower in its star"
        )
    return j


def meet_label(lattice: Lattice, arrow: tuple[int, int]) -> int:
    """The maximum of {x | upper ^ x = lower}; completely meet-irreducible."""
    upper, lower = arrow
    _require_arrow(lattice, arrow)
    m = _backend.cover_meet_label(lattice.up, lattice.down, upper, lower)
    if m < 0:
        raise NotSemidistributive(
            f"{{x | {lattice.names[upper]} ^ x = {lattice.names[lower]}}} has no maximum"
        )
    if lattice.join((upper, m)) != lattice.star_up(m) or len(lattice.cover_ups[m]) != 1:
        raise InternalInvariant(
            f"meet label {lattice.names[m]!r} of {lattice.names[upper]!r} -> "
            f"{lattice.names[lower]!r} is not a meet-irreducible joining upper to its star"
        )
    return m


def kappa(lattice: Lattice, j: int) -> int:
    """max {x | j ^ x = star_down(j)} for a completely join-irreducible j."""
    downs = lattice.cover_downs[j]
    if len(downs) != 1:
        raise NotJoinIrreducible(f"{lattice.names[j]!r} is not completely join-irreducible")
    return meet_label(lattice, (j, downs[0]))


def kappa_dual(lattice: Lattice, m: int) -> int:
    """min {x | m v x = star_up(m)} for a completely meet-irreducible m."""
    ups = lattice.cover_ups[m]
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
    """Label every Hasse arrow and tabulate kappa, verifying the identities.

    The lattice is semidistributive iff every arrow has both labels, so
    a missing label (arrow_labels gives None) is what sends it to
    semidistributive_witness for the violating triple named in
    NotSemidistributive.

    Checks, before returning: kappa and kappa_dual are mutually inverse
    bijections jirr <-> mirr, mu agrees with kappa o gamma on every arrow,
    and j v kappa(j) = star_up(kappa(j)), j ^ kappa(j) = star_down(j).
    The stars are the one upper cover of kappa(j) and the one lower cover
    of j.  The bijection test is one comparison, kappa_dual == inverted
    kappa with tables of equal size: inverting then loses no key, so kappa
    is injective, maps jirr onto mirr and has kappa_dual as its inverse.
    """
    up, down, covers = lattice.up, lattice.down, lattice.covers
    labels = _backend.arrow_labels(up, down, covers)
    if labels is None:
        witness = semidistributive_witness(lattice)
        if witness is None:
            raise InternalInvariant("an arrow lacks a label but no semidistributive law fails")
        raise NotSemidistributive(witness.describe(lattice))
    gamma_list, mu_list = labels
    gamma = dict(zip(covers, gamma_list))
    mu = dict(zip(covers, mu_list))

    cover_ups, cover_downs = lattice.cover_ups, lattice.cover_downs
    jirr = join_irreducibles(lattice)
    mirr = meet_irreducibles(lattice)
    kappa_table = {j: mu[(j, cover_downs[j][0])] for j in bits_of(jirr)}
    kappa_dual_table = {m: gamma[(cover_ups[m][0], m)] for m in bits_of(mirr)}

    if not (
        len(kappa_table) == len(kappa_dual_table)
        and kappa_dual_table == {m: j for j, m in kappa_table.items()}
    ):
        raise InternalInvariant("kappa and kappa_dual are not inverse bijections jirr <-> mirr")
    if mu_list != list(map(kappa_table.get, gamma_list)):
        raise InternalInvariant("mu differs from kappa o gamma on some arrow")
    for j, m in kappa_table.items():
        if (
            lattice.join((j, m)) != cover_ups[m][0]
            or lattice.meet((j, m)) != cover_downs[j][0]
        ):
            raise InternalInvariant(
                f"j v kappa(j) = star_up(kappa(j)) or j ^ kappa(j) = star_down(j) "
                f"fails at j={lattice.names[j]!r}"
            )

    return ArrowLabeling(
        gamma=gamma,
        mu=mu,
        kappa=kappa_table,
        kappa_dual=kappa_dual_table,
        jirr=jirr,
        mirr=mirr,
    )
