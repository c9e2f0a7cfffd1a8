"""The hot kernels: lattice test, semidistributivity, arrow labels, sweeps.

All kernels operate on order data given as sequences of int bitmasks:
up[x] is the set {y | x <= y} and down[x] the set {x' | x' <= x}, each
including x.  Ids form a linear extension (x < y in the order implies
id(x) < id(y)), so the only possible minimum of a set is its lowest bit
and the only possible maximum its highest bit.  There is one copy of
each kernel: the meet-law sweep is the join-law sweep on the dual order
(up and down swapped, lowest and highest bit swapped), and the interval
sweep takes per-element top masks, so it knows nothing of the kinds.
The exception is arrow_labels, which inlines cover_join_label and
cover_meet_label: two calls per cover cost ~315 against ~245 us on
boolean(7) (best of 200, 2-CPU VM).  tests/test_labeling.py keeps the
two equal through helpers.per_cover_labels.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from operator import itemgetter

from ._bits import highest_bit, lowest_bit, pick
from .errors import InternalInvariant


def backend_name() -> str:
    """Name of the kernel implementation (recorded by perfbench/run.py)."""
    return "pure"


def first_missing_meet(
    down: Sequence[int], cover_downs: Sequence[Sequence[int]]
) -> tuple[int, int] | None:
    """First pair of lower covers that are nested or lack a meet, or None.

    cover_downs[u] lists the lower covers of u in ascending id order.
    The pass visits u in id order and the pairs a < b of its lower
    covers in lex order, at one AND each: common = down[a] & down[b],
    whose only possible maximum is its highest bit h.  The pair fails if
    h is a (then common is down[a], so a <= b) or if common is not
    down[h] (a and b have no meet; an empty common has h = -1, and
    down[-1] is not empty).  The result is the first failing pair
    (a, b), or None if none fails.  None decides two things.

    No cover is implied.  A cover u > l is implied iff some z lies
    strictly between l and u.  A path of covers down from u to z starts
    with some u > z', and z' != l since z' >= z > l; so l < z', hence
    id(l) < id(z'), and the pair (l, z') of lower covers of u fails.
    Conversely a failing pair with a <= b puts b strictly between a
    and u.

    A poset with a top is a lattice.  Theorem: in a finite poset with a
    top in which every two lower covers of any element have a meet,
    every two elements have a meet.  (None gives the hypothesis: the
    meet of a passing pair is h.)  Suppose not.  Among the pairs x, y
    that lack a meet, and their minimal common upper bounds z (the top
    is a common upper bound), pick one with the least id(z).

    - x and y are incomparable, so x, y < z, and z has lower covers
      a >= x and b >= y.  Also a != b, or a would be a common upper
      bound below z.
    - Let m = a ^ b.  Every common lower bound of x and y lies below a
      and b, hence below m.
    - The pair (x, m) has the common upper bound a < z, so a minimal
      one below a, of id less than id(z); by the choice of z it has a
      meet x'.  Likewise y' = y ^ m exists.
    - down[x'] & down[y'] = down[x] & down[y] & down[m] = down[x] &
      down[y], so x' and y' lack a meet.  But both lie below m < z, so
      they have a minimal common upper bound below m, of id less than
      id(z): a contradiction.

    A finite poset with a top and all pairwise meets is a lattice (the
    join of x and y is the meet of their common upper bounds), so with
    the bounds checked, None is the whole lattice test.  A failing pair
    names no witness: first_failing_pair finds that.
    """
    for lows in cover_downs:
        for a, b in combinations(lows, 2):
            common = down[a] & down[b]
            h = common.bit_length() - 1
            if h == a or common != down[h]:
                return (a, b)
    return None


def first_failing_pair(
    down: Sequence[int], cover_downs: Sequence[Sequence[int]]
) -> tuple[int, int]:
    """Lex-first pair of elements without a greatest lower bound.

    The order must be a bounded poset that is not a lattice.  The rows
    are its elements with two or more lower covers.  The meet of a and b
    exists iff common = down[a] & down[b] is down[common's highest bit].
    The search tests the pairs of rows a < b in lex order and returns
    the first that fails; should none fail, it raises InternalInvariant,
    never returns None.

    That pair is the lex-first one: let a be the first row that lacks a
    meet with something, and b the least element that lacks a meet with
    a.  If b had a single lower cover c, then c would lack a meet with a
    too, and c < b.  If b < a, then row b would fail before row a.  So b
    is a row and b > a, and (a, b) is the first failing pair of rows.
    It is also the lex-first pair of the poset: by the argument for b,
    the first element of that pair is a row, and no row before a lacks
    a meet.
    """
    rows = [(x, down[x]) for x, lows in enumerate(cover_downs) if len(lows) > 1]
    for i, (a, da) in enumerate(rows):
        for b, db in rows[i + 1:]:
            common = da & db
            if common != down[common.bit_length() - 1]:
                return (a, b)
    raise InternalInvariant("the lower-cover test failed but no row lacks a meet")


def cover_join_label(up: Sequence[int], down: Sequence[int], upper: int, lower: int) -> int:
    """Minimum of {x | lower v x = upper} for a cover pair, or -1 if none.

    That set is exactly down[upper] - down[lower], which is
    down[upper] ^ down[lower] as down[lower] lies in down[upper]; its
    only candidate minimum is its lowest bit j (see transitive_reduction
    for the bit trick), a minimum iff the set lies in up[j].
    """
    cand = down[upper] ^ down[lower]
    j = (cand ^ (cand - 1)).bit_length() - 1
    return j if cand & up[j] == cand else -1


def cover_meet_label(up: Sequence[int], down: Sequence[int], upper: int, lower: int) -> int:
    """Maximum of {x | upper ^ x = lower} for a cover pair, or -1 if none.

    That set is up[lower] - up[upper], which is up[lower] ^ up[upper].
    """
    cand = up[lower] ^ up[upper]
    m = cand.bit_length() - 1
    return m if cand & down[m] == cand else -1


def arrow_labels(
    up: Sequence[int], down: Sequence[int], covers: Sequence[tuple[int, int]]
) -> tuple[list[int], list[int]] | None:
    """Join and meet labels of every cover, in the order given, or None.

    One loop computes both labels of each cover by the rules of
    cover_join_label and cover_meet_label, and returns None at the first
    cover that lacks either label.  A cover u > l has down[l] within
    down[u] and up[u] within up[l], so each candidate set is an XOR and
    each test an AND compared with the set: no step builds a negative
    int, as cand & -cand and & ~mask would.
    """
    gamma: list[int] = []
    mu: list[int] = []
    for u, l in covers:
        cand = down[u] ^ down[l]
        j = (cand ^ (cand - 1)).bit_length() - 1
        if cand & up[j] != cand:
            return None
        cand = up[l] ^ up[u]
        m = cand.bit_length() - 1
        if cand & down[m] != cand:
            return None
        gamma.append(j)
        mu.append(m)
    return gamma, mu


def sd_witness(
    up: Sequence[int], down: Sequence[int], covers: Sequence[tuple[int, int]]
) -> tuple[str, int, int, int] | None:
    """First triple violating a pairwise semidistributive law, or None.

    A finite lattice is semidistributive iff every cover carries both a
    join label and a meet label, so that O(|covers|) test decides.  Only
    when a label is missing does the fiber sweep run, to report the first
    violating triple: the join law first, then the meet law, which is the
    same sweep on the dual order.
    """
    if arrow_labels(up, down, covers) is not None:
        return None
    return (
        _law_witness("join", up, down, lowest_bit, highest_bit)
        or _law_witness("meet", down, up, highest_bit, lowest_bit)
    )


def _law_witness(law, ups, downs, least, greatest):
    """First (law, a, x, y) with a|x = a|y but a|(x&y) != a|x, or None.

    Written for the join law: | is the join, least(ups[x] & ups[y]), and
    & the meet, greatest(downs[x] & downs[y]); the dual order (ups and
    downs swapped, least and greatest swapped) gives the meet law.

    For fixed a the law holds for all pairs iff, for every fiber C of
    x -> a|x, joining a with the meet of all of C lands back on the fiber
    value: a failing pair x, y puts a|(x&y), hence a|meet(C), strictly
    below it, and if every pair passes then x&y is again in C, so C is
    closed under meets.  One AND per element replaces the cubic triple
    scan.  Only a failing fiber is rescanned, in id order, for its first
    failing pair; a in id order and the fibers in order of their first x
    make the triple deterministic.

    Only the x incomparable to a are swept.  Every x <= a lies in the
    fiber of a, and that fiber always passes.  An x > a is the largest
    member of its fiber, so it changes neither the fiber's AND-bound nor,
    in the join pass, the fiber's first member; a fiber of x alone
    passes.  So each a has the same failing fibers as in the full sweep.
    In the meet pass (dual order, a still in ascending id) that x is the
    fiber's first member, but there the first failing a has a single
    failing fiber.  In meet-law terms: if a, x, y fail, so do
    a' = a ^ (x v y) <= a, x, y, hence the first failing a lies below
    x v y.  Were fibers v1 != v2 of it to fail, with say v1 not <= v2,
    then b = v1 < a would fail with the pair x2, y2 of v2: b ^ x2 =
    b ^ y2 = v1 ^ v2, but b ^ (x2 v y2) = b != v1 ^ v2.
    """
    n = len(ups)
    ids = range(n)
    everything = (1 << n) - 1
    for a in ids:
        ua = ups[a]
        fiber: dict[int, int] = {}
        for x in pick(ids, everything & ~(ua | downs[a])):
            v = least(ua & ups[x])
            fiber[v] = fiber.get(v, -1) & downs[x]
        for v, bound in fiber.items():
            if least(ua & ups[greatest(bound)]) != v:
                xs = [x for x in ids if least(ua & ups[x]) == v]
                return (law,) + _locate_pair(ups, downs, least, greatest, a, v, xs)
    return None


def _locate_pair(ups, downs, least, greatest, a, v, xs):
    ua = ups[a]
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            if least(ua & ups[greatest(downs[x] & downs[y])]) != v:
                return (a, x, y)
    raise InternalInvariant("fiber bound escaped but every pair agrees")


def transitive_reduction(up: Sequence[int]) -> list[tuple[int, int]]:
    """Cover pairs (upper, lower) of the order given by up-masks, lex-sorted.

    Precondition: ids form a linear extension of the order (x < y in the
    order implies x < y as ints).  Then the lowest bit of what remains of
    x's strict up-set is minimal in it, hence a cover of x; clearing that
    cover's up-set and repeating peels off exactly the covers, at one
    mask operation per Hasse edge.

    Both steps stay on non-negative ints, where rest & -rest and
    ~up[upper] would each build a negative int.  rest - 1 flips the
    lowest set bit of rest and the zeros below it and nothing else, so
    rest ^ (rest - 1) holds exactly those bits and its bit length is one
    past the lowest bit; rest ^= rest & up[upper] clears up[upper] from
    rest.  Lowers are visited in ascending order, so the pairs of each
    upper are appended with ascending lowers, and a stable sort on the
    upper alone (an int key, no tuple comparisons) leaves them in lex
    order.
    """
    pairs = []
    for lower in range(len(up)):
        rest = up[lower] ^ (1 << lower)
        while rest:
            upper = (rest ^ (rest - 1)).bit_length() - 1
            pairs.append((upper, lower))
            rest ^= rest & up[upper]
    pairs.sort(key=itemgetter(0))
    return pairs


def interval_images(
    belowj: Sequence[int], kge: Sequence[int], tops: Sequence[int], cap: int
) -> dict[int, tuple[int, int]]:
    """Map each distinct interval label set to its first witness interval.

    Sweeps the intervals [a, b] with b in tops[a], in lex (a, b) order,
    and records the label bitmask belowj[b] & kge[a]: one AND per
    interval.  The caller picks the intervals through tops (up[a] for
    all of them, or the tops of the wide or ICE intervals at a).  belowj
    and kge are caller-compressed masks over join-irreducible positions,
    so the keys of the result are compressed masks too, with the caller's
    bit for each join-irreducible.  The sweep stops at the first
    set past cap, so a result of more than cap sets holds exactly cap + 1.
    """
    images: dict[int, tuple[int, int]] = {}
    for a, m in enumerate(tops):
        kga = kge[a]
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            jl = belowj[b] & kga
            if jl not in images:
                images[jl] = (a, b)
                if len(images) > cap:
                    return images
    return images
