"""Canonical join representations, the extended kappa map, and the two
poset structures they induce: the kappa order and the core label order.

Every element of a finite semidistributive lattice has a canonical join
representation, read off as the labels of its down-arrows; meeting the
kappa images of those joinands extends kappa to a bijection of the whole
lattice.  The kappa order compares elements and their extended-kappa
images; the core label order compares the label sets jlabel[x_down, x].
The two orders agree on lattices of torsion classes but not in general,
and this module also evaluates the sufficient condition separating the
two situations.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _backend
from ._bits import bits_of
from .errors import NotAPartialOrder, TooLarge
from .intervals import down_jlabel, jlabel, supersets, up_jlabel
from .lattice import Lattice
from .labeling import ArrowLabeling

ORDER_KINDS = ("kappa", "clo")


def cjr(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """Canonical joinands of x: the labels of the arrows leaving x.

    Verified before returning: the joinands are an antichain of
    join-irreducibles, they join to x, and distinct joinands i, j
    satisfy i <= kappa(j).
    """
    rep = down_jlabel(lattice, labeling, x)
    ids = list(bits_of(rep))
    assert all((labeling.jirr >> j) & 1 for j in ids)
    assert lattice.join(ids) == x
    for i in ids:
        assert lattice.up[i] & rep == 1 << i  # antichain
        for j in ids:
            if i != j:
                assert lattice.leq(i, labeling.kappa[j])
    return rep


def verify_cjr_oracle(lattice: Lattice, x: int, rep: int) -> bool:
    """Exhaustive check that rep is the canonical join representation of x.

    Enumerates every subset B of the lattice with join x and tests that
    rep refines B, plus the antichain and join conditions.  Exponential;
    refuses lattices above 12 elements.
    """
    n = lattice.n
    if n > 12:
        raise TooLarge(f"oracle enumerates 2^{n} subsets; capped at 12 elements")
    ids = list(bits_of(rep))
    if lattice.join(ids) != x:
        return False
    for i in ids:
        if lattice.up[i] & rep != 1 << i:
            return False
    for bmask in range(1 << n):
        if lattice.join(bits_of(bmask)) != x:
            continue
        if any(lattice.up[a] & bmask == 0 for a in ids):
            return False
    return True


def gorbunov_check(lattice: Lattice, x: int) -> bool:
    """Every y < x lies below some lower cover of x.

    This is the canonical-join-representation existence criterion; it
    holds at every element of a finite lattice and is kept purely as a
    cross-validation oracle.
    """
    reach = 0
    for c in lattice.covers_down(x):
        reach |= lattice.down[c]
    strict = lattice.down[x] ^ (1 << x)
    return strict & ~reach == 0


def extended_kappa(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """Meet of kappa over the canonical joinands of x.

    The result y is the unique element whose up-arrow labels equal the
    down-arrow labels of x; that uniqueness property is asserted here.
    """
    rep = cjr(lattice, labeling, x)
    y = lattice.meet(labeling.kappa[j] for j in bits_of(rep))
    assert up_jlabel(lattice, labeling, y) == rep
    return y


def extended_kappa_table(lattice: Lattice, labeling: ArrowLabeling) -> tuple[int, ...]:
    """Extended kappa image of every element; a permutation of the lattice."""
    table = tuple(extended_kappa(lattice, labeling, x) for x in range(lattice.n))
    assert sorted(table) == list(range(lattice.n))
    return table


def x_down(lattice: Lattice, x: int) -> int:
    """x meeted with all its lower covers (the lower end of the core interval)."""
    return lattice.meet((x, *lattice.covers_down(x)))


def core_label(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """jlabel of the core interval [x_down, x]."""
    return jlabel(lattice, labeling, (x_down(lattice, x), x))


def kappa_leq(lattice: Lattice, labeling: ArrowLabeling, x: int, y: int) -> bool:
    """x <= y and extended_kappa(x) >= extended_kappa(y)."""
    if not lattice.leq(x, y):
        return False
    return lattice.leq(
        extended_kappa(lattice, labeling, y), extended_kappa(lattice, labeling, x)
    )


def clo_leq(lattice: Lattice, labeling: ArrowLabeling, x: int, y: int) -> bool:
    """Core label set of x contained in that of y."""
    return core_label(lattice, labeling, x) & ~core_label(lattice, labeling, y) == 0


@dataclass(frozen=True)
class OrderRelation:
    """A derived partial order on the lattice elements.

    up[x] is the bitmask of {y | x <= y} in the derived order (element
    ids are the lattice's own); hasse is its transitive reduction as
    (upper, lower) pairs.  Derived orders need not be lattices.
    """

    kind: str
    up: tuple[int, ...]
    hasse: tuple[tuple[int, int], ...]

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)


def order_poset(lattice: Lattice, labeling: ArrowLabeling, kind: str) -> OrderRelation:
    """Relation matrix and Hasse covers of the kappa or core label order."""
    if kind not in ORDER_KINDS:
        raise ValueError(f"kind must be one of {ORDER_KINDS}, got {kind!r}")
    n = lattice.n
    if kind == "kappa":
        up_rel = [0] * n
        exk = extended_kappa_table(lattice, labeling)
        for x in range(n):
            dxk = lattice.down[exk[x]]
            mask = 0
            for y in bits_of(lattice.up[x]):
                if (dxk >> exk[y]) & 1:
                    mask |= 1 << y
            up_rel[x] = mask
    else:
        cores = [core_label(lattice, labeling, x) for x in range(n)]
        for x in range(n):
            # posethood rests on x being recoverable as the join of its core labels
            assert lattice.join(bits_of(cores[x])) == x
        up_rel = supersets(cores)

    down_rel = [0] * n
    for x in range(n):
        for y in bits_of(up_rel[x]):
            down_rel[y] |= 1 << x
    for x in range(n):
        if up_rel[x] & down_rel[x] != 1 << x:
            other = next(y for y in bits_of(up_rel[x] & down_rel[x]) if y != x)
            raise NotAPartialOrder(
                f"{kind} relation not antisymmetric on "
                f"({lattice.names[x]!r}, {lattice.names[other]!r})"
            )
    # both orders refine the lattice order, whose ids form a linear extension
    hasse = _backend.transitive_reduction(n, up_rel)
    return OrderRelation(kind=kind, up=tuple(up_rel), hasse=tuple(hasse))


def first_order_mismatch(lattice: Lattice, labeling: ArrowLabeling) -> tuple[int, int] | None:
    """First pair (x, y) in lex id order on which the two orders disagree."""
    by_kappa = order_poset(lattice, labeling, "kappa")
    by_clo = order_poset(lattice, labeling, "clo")
    for x in range(lattice.n):
        diff = by_kappa.up[x] ^ by_clo.up[x]
        if diff:
            return (x, (diff & -diff).bit_length() - 1)
    return None


def orders_coincide(lattice: Lattice, labeling: ArrowLabeling) -> bool:
    return first_order_mismatch(lattice, labeling) is None


def sufficiency_failures(lattice: Lattice, labeling: ArrowLabeling) -> tuple[int, ...]:
    """Elements where the core label set differs from the kappa-bounded one.

    The sufficient condition for the two orders to coincide asks, at
    every x, that jlabel[x_down, x] equal
    {j join-irreducible | j <= x and kappa(j) >= extended_kappa(x)}.
    """
    failures = []
    for x in range(lattice.n):
        lhs = core_label(lattice, labeling, x)
        exk_x = extended_kappa(lattice, labeling, x)
        rhs = 0
        down_x = lattice.down[x]
        up_exk = lattice.up[exk_x]
        for j in bits_of(labeling.jirr):
            if (down_x >> j) & 1 and (up_exk >> labeling.kappa[j]) & 1:
                rhs |= 1 << j
        if lhs != rhs:
            failures.append(x)
    return tuple(failures)


def coincide_sufficient(lattice: Lattice, labeling: ArrowLabeling) -> bool:
    return not sufficiency_failures(lattice, labeling)
