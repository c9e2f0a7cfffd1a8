"""Semidistributivity, irreducible elements, arrow labels, and the kappa map.

Every Hasse arrow a -> b of a semidistributive lattice carries a
join-irreducible label (the least x with b v x = a) and a meet-irreducible
label (the greatest x with a ^ x = b); restricting those labelings to the
arrows under join-irreducibles yields the kappa bijection jirr <-> mirr.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _backend
from ._bits import bits_of
from .errors import (
    NotAnArrow,
    NotJoinIrreducible,
    NotMeetIrreducible,
    NotSemidistributive,
)
from .lattice import Lattice


@dataclass(frozen=True)
class SdViolation:
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
    hit = _backend.sd_witness(lattice.n, lattice.up, lattice.down, lattice.covers)
    if hit is None:
        return None
    return SdViolation(*hit)


def is_semidistributive(lattice: Lattice) -> bool:
    return semidistributive_witness(lattice) is None


def join_irreducibles(lattice: Lattice) -> int:
    """Bitmask of elements x with star_down(x) != x (exactly one lower cover)."""
    mask = 0
    for x in range(lattice.n):
        if lattice.star_down(x) != x:
            mask |= 1 << x
    return mask


def meet_irreducibles(lattice: Lattice) -> int:
    mask = 0
    for x in range(lattice.n):
        if lattice.star_up(x) != x:
            mask |= 1 << x
    return mask


def _require_arrow(lattice: Lattice, arrow: tuple[int, int]) -> None:
    upper, lower = arrow
    if lower not in lattice.covers_down(upper):
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
    assert lattice._meet2(lower, j) == lattice.star_down(j)
    assert len(lattice.covers_down(j)) == 1
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
    assert lattice._join2(upper, m) == lattice.star_up(m)
    assert len(lattice.covers_up(m)) == 1
    return m


def kappa(lattice: Lattice, j: int) -> int:
    """max {x | j ^ x = star_down(j)} for a completely join-irreducible j."""
    downs = lattice.covers_down(j)
    if len(downs) != 1:
        raise NotJoinIrreducible(f"{lattice.names[j]!r} is not completely join-irreducible")
    return meet_label(lattice, (j, downs[0]))


def kappa_dual(lattice: Lattice, m: int) -> int:
    """min {x | m v x = star_up(m)} for a completely meet-irreducible m."""
    ups = lattice.covers_up(m)
    if len(ups) != 1:
        raise NotMeetIrreducible(f"{lattice.names[m]!r} is not completely meet-irreducible")
    return join_label(lattice, (ups[0], m))


@dataclass(frozen=True)
class ArrowLabeling:
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

    Checks, before returning: kappa and kappa_dual are mutually inverse
    bijections jirr <-> mirr, mu agrees with kappa o gamma on every arrow,
    and j v kappa(j) = star_up(kappa(j)), j ^ kappa(j) = star_down(j).
    """
    witness = semidistributive_witness(lattice)
    if witness is not None:
        raise NotSemidistributive(witness.describe(lattice))

    up, down = lattice.up, lattice.down
    gamma = {a: _backend.cover_join_label(up, down, *a) for a in lattice.covers}
    mu = {a: _backend.cover_meet_label(up, down, *a) for a in lattice.covers}

    jirr = join_irreducibles(lattice)
    mirr = meet_irreducibles(lattice)
    kappa_table = {j: mu[(j, lattice.covers_down(j)[0])] for j in bits_of(jirr)}
    kappa_dual_table = {m: gamma[(lattice.covers_up(m)[0], m)] for m in bits_of(mirr)}

    assert all((mirr >> m) & 1 for m in kappa_table.values())
    assert all((jirr >> j) & 1 for j in kappa_dual_table.values())
    assert all(kappa_dual_table[m] == j for j, m in kappa_table.items())
    assert all(kappa_table[j] == m for m, j in kappa_dual_table.items())
    assert all(mu[a] == kappa_table[gamma[a]] for a in lattice.covers)
    for j, m in kappa_table.items():
        assert lattice._join2(j, m) == lattice.star_up(m)
        assert lattice._meet2(j, m) == lattice.star_down(j)

    return ArrowLabeling(
        gamma=gamma,
        mu=mu,
        kappa=kappa_table,
        kappa_dual=kappa_dual_table,
        jirr=jirr,
        mirr=mirr,
    )
