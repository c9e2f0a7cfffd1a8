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

The whole-lattice functions (extended_kappa_table, order_poset,
compare_orders) read everything off per-lattice tables built by passes
over the covers: each element's down- and up-arrow label masks (one pass
over gamma), the interval label halves belowj/kge (intervals.label_tables)
and the down-set of extended-kappa images.  Their checks run per cover
as well, on the cover characterization of a join: a set S within down[x]
joins to x iff S is within down[c] for no lower cover c of x.  So the
canonical joinands of every element, its extended kappa image, x_down
and the core label sets cost a few mask operations per cover, and no
per-element join or meet.  The core label check names the first failing
element off its own cover scan (see _core_labels); extended_kappa_table
reruns the single-element functions on failure, in id order, so that its
first failing element raises their message.  A check that earlier ones
imply is not made, and the docstring that would make it proves it.  Both
orders refine the lattice order, so they are partial orders with no
check (see order_poset).  The single-element functions (cjr,
extended_kappa, core_label, kappa_leq, clo_leq) compute from the
definitions and serve as their oracle.  order_poset returns an
OrderRelation, a named tuple.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from . import _backend
from ._bits import bits_of, lowest_bit
from .errors import InternalInvariant
from .intervals import down_jlabel, jlabel, label_tables, supersets, up_jlabel
from .lattice import Lattice
from .labeling import ArrowLabeling

ORDER_KINDS = ("kappa", "clo")


def _check_joinands(lattice: Lattice, labeling: ArrowLabeling, x: int, rep: int) -> list[int]:
    """The joinands in rep, in id order, once checked to represent x canonically.

    Raises InternalInvariant unless the joinands are join-irreducibles
    joining to x, an antichain (up[i] & rep is i alone), and every other
    joinand lies below kappa(i).  A few mask tests per joinand.
    """
    up, names = lattice.up, lattice.names
    ids = list(bits_of(rep))
    if rep & ~labeling.jirr or lattice.join(ids) != x:
        raise InternalInvariant(
            f"canonical joinands of {names[x]!r} are not join-irreducibles joining to it"
        )
    for i in ids:
        if up[i] & rep != 1 << i:
            raise InternalInvariant(f"canonical joinands of {names[x]!r} are not an antichain")
        outside = (rep ^ (1 << i)) & ~lattice.down[labeling.kappa[i]]
        if outside:
            raise InternalInvariant(
                f"canonical joinand {names[lowest_bit(outside)]!r} of {names[x]!r} is not "
                f"below kappa({names[i]!r})"
            )
    return ids


def cjr(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """Canonical joinands of x: the labels of the arrows leaving x.

    Verified before returning: the joinands are an antichain of
    join-irreducibles, they join to x, and distinct joinands i, j
    satisfy i <= kappa(j).
    """
    rep = down_jlabel(lattice, labeling, x)
    _check_joinands(lattice, labeling, x, rep)
    return rep


def extended_kappa(lattice: Lattice, labeling: ArrowLabeling, x: int) -> int:
    """Meet of kappa over the canonical joinands of x.

    The result y is the unique element whose up-arrow labels equal the
    down-arrow labels of x; that uniqueness property is checked here.
    """
    rep = cjr(lattice, labeling, x)
    y = lattice.meet(labeling.kappa[j] for j in bits_of(rep))
    if up_jlabel(lattice, labeling, y) != rep:
        raise InternalInvariant(
            f"up-arrow labels of extended_kappa({lattice.names[x]!r}) differ from its joinands"
        )
    return y


def extended_kappa_table(lattice: Lattice, labeling: ArrowLabeling) -> tuple[int, ...]:
    """Extended kappa image of every element; a permutation of the lattice.

    One pass over gamma gives every element's down-label mask D[x] (its
    canonical joinands) and up-label mask U[y].  A second pass checks D[x]
    on each arrow (x, c) with label i, the checks of cjr moved from the
    joinands to the arrows that carry them: every i in D[x] labels an
    arrow leaving x, and every such arrow's label is in D[x].  D[x] joins
    to x iff D[x] lies in down[x] and, for every lower cover c of x, not
    in down[c]: its join is at most x iff it lies in down[x], and below x
    iff it lies below some lower cover.  So the arrow checks are: D[x] not
    within down[c]; i a join-irreducible below x (tested before kappa(i)
    is read); up[i] & D[x] == {i}; and D[x] - {i} within down[kappa(i)].
    The same pass ANDs down[kappa(i)] into kd[x], so the image y of x,
    the meet of kappa over D[x], is the highest bit of kd[x]; last,
    U[y] == D[x] for every x.

    If any check fails, the single-element extended_kappa runs on every
    element in id order, so the first failing element raises its own
    message: which of the four it raises depends on the per-element check
    order, which the per-cover pass does not keep.  Should no element
    raise, the two steps disagree, and InternalInvariant says so; a table
    comes only from the per-cover pass.  When all pass, the table is a
    permutation: exk(x1) = exk(x2) gives D[x1] = D[x2], and x = join(D[x])
    gives x1 = x2.

    The antichain test stays: the others imply it when labeling.jirr
    holds only join-irreducibles, but a label from a wider mask need not
    be one, and no proof covers that case.
    """
    n = lattice.n
    up, down = lattice.up, lattice.down
    gamma, kappa, jirr = labeling.gamma, labeling.kappa, labeling.jirr
    down_labels = [0] * n
    up_labels = [0] * n
    for (upper, lower), j in gamma.items():
        down_labels[upper] |= 1 << j
        up_labels[lower] |= 1 << j
    kd = [down[-1]] * n
    for (x, c), i in gamma.items():
        rep = down_labels[x]
        bit = 1 << i
        if rep & down[c] == rep or not jirr & down[x] & bit or up[i] & rep != bit:
            break
        below = down[kappa[i]]
        if (rep ^ bit) & below != rep ^ bit:
            break
        kd[x] &= below
    else:
        table = tuple([m.bit_length() - 1 for m in kd])
        if list(map(up_labels.__getitem__, table)) == down_labels:
            return table
    for x in range(n):
        extended_kappa(lattice, labeling, x)
    raise InternalInvariant("the extended kappa table failed a check but every element passes")


def x_down(lattice: Lattice, x: int) -> int:
    """x meeted with all its lower covers (the lower end of the core interval)."""
    return lattice.meet((x, *lattice.cover_downs[lattice.check_element(x)]))


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


class OrderRelation(NamedTuple):
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


def _core_labels(lattice: Lattice, labeling: ArrowLabeling) -> tuple[list[int], ...]:
    """cores[x] = jlabel[x_down, x] for every x, with the belowj/kge tables.

    cores[x] = belowj[x] & kge[x_down(x)].  x_down(x), the meet of x and
    its lower covers, is the highest bit of acc[x], the AND of down[x]
    and down[l] over the lower covers l: one AND per cover.

    Each x must join cores[x], on which the core label order's posethood
    rests.  cores[x] lies in down[x] for any labeling (belowj is or_below
    over the bits of labeling.jirr), so by the cover test of
    extended_kappa_table only the covers are scanned, one AND each.  They
    are sorted by upper element, so the first failing cover (u, l), with
    cores[u] within down[l], names the first failing x.
    """
    belowj, kge = label_tables(lattice, labeling, {j: 1 << j for j in bits_of(labeling.jirr)})
    down = lattice.down
    acc = list(down)
    for u, l in lattice.covers:
        acc[u] &= down[l]
    cores = [bj & kge[m.bit_length() - 1] for bj, m in zip(belowj, acc)]
    for u, l in lattice.covers:
        if cores[u] & down[l] == cores[u]:
            raise InternalInvariant(f"{lattice.names[u]!r} is not the join of its core label set")
    return cores, belowj, kge


def _kappa_up(lattice: Lattice, exk: Sequence[int]) -> list[int]:
    """up_rel[x] = {y >= x | exk[y] <= exk[x]}: the kappa order's up-sets.

    below[z] = {y | exk[y] <= z} is or_below over the bit of the inverse
    permutation; up_rel[x] is then up[x] & below[exk[x]].
    """
    inverse = [0] * lattice.n
    for y, z in enumerate(exk):
        inverse[z] = y
    below = lattice.or_below([1 << y for y in inverse])
    return [u & below[z] for u, z in zip(lattice.up, exk)]


def order_poset(lattice: Lattice, labeling: ArrowLabeling, kind: str) -> OrderRelation:
    """Relation matrix and Hasse covers of the kappa or core label order.

    kappa: up_rel[x] = up[x] & below[exk[x]], where exk is
    extended_kappa_table and below[z] = {y | exk[y] <= z}.  clo:
    up_rel = supersets of the core label sets cores[x] =
    belowj[x] & kge[x_down] (see intervals.label_tables), each x checked
    to be the join of its core labels by _core_labels.

    Both relations refine the lattice order, hence are partial orders:
    kappa's up[x] & below[exk[x]] holds x as exk is a permutation; for
    clo, cores[x] within cores[y] gives x = join(cores[x]) <= y.  Wrong
    kappa or core labels would still give a refinement, so only the
    InternalInvariant raises, not an antisymmetry check, catch them.
    """
    if kind not in ORDER_KINDS:
        raise ValueError(f"kind must be one of {ORDER_KINDS}, got {kind!r}")
    if kind == "kappa":
        up_rel = _kappa_up(lattice, extended_kappa_table(lattice, labeling))
    else:
        up_rel = supersets(_core_labels(lattice, labeling)[0])
    # both orders refine the lattice order, whose ids form a linear extension
    hasse = _backend.transitive_reduction(up_rel)
    return OrderRelation(kind=kind, up=tuple(up_rel), hasse=tuple(hasse))


def compare_orders(
    lattice: Lattice, labeling: ArrowLabeling
) -> tuple[tuple[int, int] | None, tuple[int, ...]]:
    """(first_order_mismatch, sufficiency_failures) off one set of tables.

    One extended_kappa_table and one _core_labels serve both answers; the
    orders are compared on their up-sets, with no Hasse diagram and (see
    order_poset) no antisymmetry check.  The checks run as order_poset
    runs them for kappa and then clo, so the same error is raised first.

    The mismatch is the first pair (x, y) in lex id order on which the two
    orders disagree.  The sufficient condition for them to coincide asks,
    at every x, that jlabel[x_down, x] equal
    {j join-irreducible | j <= x and kappa(j) >= extended_kappa(x)}, which
    is belowj[x] & kge[extended_kappa(x)]; the failures are the x where it
    does not hold.
    """
    exk = extended_kappa_table(lattice, labeling)
    by_kappa = _kappa_up(lattice, exk)
    cores, belowj, kge = _core_labels(lattice, labeling)
    by_clo = supersets(cores)
    mismatch = next(
        ((x, lowest_bit(k ^ c)) for x, (k, c) in enumerate(zip(by_kappa, by_clo)) if k != c),
        None,
    )
    failures = tuple(
        x for x, (core, bj, z) in enumerate(zip(cores, belowj, exk)) if core != bj & kge[z]
    )
    return mismatch, failures


def first_order_mismatch(lattice: Lattice, labeling: ArrowLabeling) -> tuple[int, int] | None:
    """First pair (x, y) in lex id order on which the two orders disagree."""
    return compare_orders(lattice, labeling)[0]


def sufficiency_failures(lattice: Lattice, labeling: ArrowLabeling) -> tuple[int, ...]:
    """Elements where the core label set differs from the kappa-bounded one.

    See compare_orders for the condition.
    """
    return compare_orders(lattice, labeling)[1]
