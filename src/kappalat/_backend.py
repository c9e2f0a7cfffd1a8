"""The hot kernels: lattice test, semidistributivity, arrow labels, sweeps.

All kernels operate on order data given as sequences of int bitmasks:
up[x] is the set {y | x <= y} and down[x] the set {x' | x' <= x}, each
including x.  Ids form a linear extension (x < y in the order implies
id(x) < id(y)), so the only possible minimum of a set is its lowest bit
and the only possible maximum its highest bit.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._bits import bits_of
from .errors import InternalInvariant


def backend_name() -> str:
    """Name of the kernel implementation (recorded by perfbench/run.py)."""
    return "pure"


def first_missing_meet(
    n: int,
    up: Sequence[int],
    down: Sequence[int],
    cover_ups: Sequence[Sequence[int]],
    cover_downs: Sequence[Sequence[int]],
) -> tuple[int, int] | None:
    """First incomparable pair (by lex id order) lacking a greatest lower bound.

    Bounded posets are lattices iff all pairwise meets exist, so this is
    the whole lattice test once top and bottom are known to be unique.
    cover_ups[x] / cover_downs[x] list the upper / lower covers of x;
    mirr denotes the elements with exactly one upper cover.

    A bounded poset is a lattice iff (a) every down[x] is the intersection
    of down[m] over the m in mirr above x, and (b) for every x and every m
    in mirr, down[x] & down[m] is again a principal down-set: by (a) any
    down[x] & down[y] is then a chain of such intersections.  Both reduce
    to a check at the elements with two or more lower covers:

    - (b) needs checking only there.  If x has exactly one lower cover c,
      then down[x] & down[m] = down[c] & down[m] for every m incomparable
      to x, so x passes when c does (bottom-up induction), and a
      comparable m passes trivially.
    - (a) follows from (b).  Take x maximal where (a) fails: x has upper
      covers u != v and some y <= u, v with y not <= x; (a) holds at v,
      so some m in mirr above v is not above u, and down[u] & down[m]
      holds x and y but has no maximum, which would lie between x and
      its cover u.

    That certificate costs one AND per such x and m in mirr.  Only when
    it fails does the row test run, to report the witness.  The b in
    which z <= a is a maximal common lower bound of a and b form
    up[z] & ~OR(up[u]: u an upper cover of z inside down[a]); counting
    those masks once/twice over z in down[a] marks every b whose meet
    with a is missing.  A row with one lower cover c fails only where row
    c does, and meets are symmetric, so the first failing row with two or
    more lower covers and the lowest b it marks are the lex-first pair.
    """
    mirr_downs = [down[m] for m, cu in enumerate(cover_ups) if len(cu) == 1]
    for x, cd in enumerate(cover_downs):
        if len(cd) > 1:
            dx = down[x]
            for dm in mirr_downs:
                common = dx & dm
                if common != down[common.bit_length() - 1]:
                    return _first_failing_row(n, up, down, cover_ups, cover_downs)
    return None


def _first_failing_row(n, up, down, cover_ups, cover_downs):
    for a in range(n):
        if len(cover_downs[a]) < 2:
            continue
        da = down[a]
        once = twice = 0
        for z in bits_of(da):
            maximal = up[z]
            for u in cover_ups[z]:
                if (da >> u) & 1:
                    maximal &= ~up[u]
            twice |= once & maximal
            once |= maximal
        if twice:
            return (a, (twice & -twice).bit_length() - 1)
    return None


def cover_join_label(up: Sequence[int], down: Sequence[int], upper: int, lower: int) -> int:
    """Minimum of {x | lower v x = upper} for a cover pair, or -1 if none.

    That set is exactly down[upper] & ~down[lower]; its only candidate
    minimum is its lowest bit.
    """
    cand = down[upper] & ~down[lower]
    j = (cand & -cand).bit_length() - 1
    return j if cand & ~up[j] == 0 else -1


def cover_meet_label(up: Sequence[int], down: Sequence[int], upper: int, lower: int) -> int:
    """Maximum of {x | upper ^ x = lower} for a cover pair, or -1 if none."""
    cand = up[lower] & ~up[upper]
    m = cand.bit_length() - 1
    return m if cand & ~down[m] == 0 else -1


def _join(up: Sequence[int], x: int, y: int) -> int:
    u = up[x] & up[y]
    return (u & -u).bit_length() - 1


def _meet(down: Sequence[int], x: int, y: int) -> int:
    return (down[x] & down[y]).bit_length() - 1


def sd_witness(
    n: int, up: Sequence[int], down: Sequence[int], covers: Sequence[tuple[int, int]]
) -> tuple[str, int, int, int] | None:
    """First triple violating a pairwise semidistributive law, or None.

    A finite lattice is semidistributive iff every cover carries both a
    join label and a meet label, so that O(|covers|) test decides.  Only
    when a label is missing does the fiber sweep below run, to report
    the first violating triple.

    For fixed a the law SDv (a|x = a|y implies a|(x&y) = a|x) holds for
    all pairs iff, for every fiber C of x -> a|x, joining a with the
    meet of all of C lands back on the fiber value.  Checking one meet
    per fiber replaces the cubic triple scan; a failing fiber is then
    rescanned pairwise to report a concrete triple.  The meet law is
    handled dually.  Scan order (join law first, then meet law, elements
    in id order) makes the witness deterministic.
    """
    if all(
        cover_join_label(up, down, u, l) >= 0 and cover_meet_label(up, down, u, l) >= 0
        for u, l in covers
    ):
        return None
    for a in range(n):
        fiber_meet: dict[int, int] = {}
        members: dict[int, int] = {}
        for x in range(n):
            v = _join(up, a, x)
            if v in fiber_meet:
                fiber_meet[v] &= down[x]
                members[v] |= 1 << x
            else:
                fiber_meet[v] = down[x]
                members[v] = 1 << x
        for v, dm in fiber_meet.items():
            m = dm.bit_length() - 1
            if _join(up, a, m) != v:
                return ("join",) + _locate_join_pair(up, down, a, v, members[v])
    for a in range(n):
        fiber_join: dict[int, int] = {}
        members = {}
        for x in range(n):
            v = _meet(down, a, x)
            if v in fiber_join:
                fiber_join[v] &= up[x]
                members[v] |= 1 << x
            else:
                fiber_join[v] = up[x]
                members[v] = 1 << x
        for v, um in fiber_join.items():
            j = (um & -um).bit_length() - 1
            if _meet(down, a, j) != v:
                return ("meet",) + _locate_meet_pair(up, down, a, v, members[v])
    return None


def _locate_join_pair(up, down, a, v, member_mask):
    xs = []
    m = member_mask
    while m:
        low = m & -m
        xs.append(low.bit_length() - 1)
        m ^= low
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            if _join(up, a, _meet(down, x, y)) != v:
                return (a, x, y)
    raise InternalInvariant("fiber meet escaped but every pair agrees")


def _locate_meet_pair(up, down, a, v, member_mask):
    xs = []
    m = member_mask
    while m:
        low = m & -m
        xs.append(low.bit_length() - 1)
        m ^= low
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            if _meet(down, a, _join(up, x, y)) != v:
                return (a, x, y)
    raise InternalInvariant("fiber join escaped but every pair agrees")


def transitive_reduction(n: int, up: Sequence[int]) -> list[tuple[int, int]]:
    """Cover pairs (upper, lower) of the order given by up-masks, lex-sorted.

    Precondition: ids form a linear extension of the order (x < y in the
    order implies x < y as ints).  Then the lowest bit of what remains of
    x's strict up-set is minimal in it, hence a cover of x; clearing that
    cover's up-set and repeating peels off exactly the covers, at one
    mask operation per Hasse edge.
    """
    pairs = []
    for lower in range(n):
        rest = up[lower] ^ (1 << lower)
        while rest:
            upper = (rest & -rest).bit_length() - 1
            pairs.append((upper, lower))
            rest &= ~up[upper]
    pairs.sort()
    return pairs


def interval_images(
    n: int,
    up: Sequence[int],
    down: Sequence[int],
    belowj: Sequence[int],
    kge: Sequence[int],
    cover_ups: Sequence[tuple[int, ...]],
    kind: str,
    cap: int,
) -> dict[int, tuple[int, int]]:
    """Map each distinct interval label set to its first witness interval.

    Enumerates intervals [a, b] in lex (a, b) order, keeps those of the
    requested kind (all / wide / ice), and records the label bitmask
    belowj[b] & kge[a].  belowj and kge are caller-compressed masks over
    join-irreducible positions, so the per-interval step is one AND, and
    the keys of the result are compressed masks too: bit p stands for the
    p-th join-irreducible in id order.  The sweep stops at the first set
    past cap, so a result of more than cap sets holds exactly cap + 1.
    """
    images: dict[int, tuple[int, int]] = {}
    for a in range(n):
        kga = kge[a]
        cu = cover_ups[a]
        if kind == "ice":
            bound = a
            for c in cu:
                bound = _join(up, bound, c)
            reach = down[bound]
        m = up[a]
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            if kind == "wide":
                w = a
                db = down[b]
                for c in cu:
                    if (db >> c) & 1:
                        w = _join(up, w, c)
                if w != b:
                    continue
            elif kind == "ice":
                if not (reach >> b) & 1:
                    continue
            jl = belowj[b] & kga
            if jl not in images:
                images[jl] = (a, b)
                if len(images) > cap:
                    return images
    return images
