"""Shared fixtures: the test corpus and independent brute-force oracles.

The oracles only use the leq relation, never the bitmask shortcuts or
the arrow labelings, so they stay independent of the code paths they
check.  corpus_examples runs a random-lattice property test on the
corpus too, so each property is checked in one test over both.
"""

from __future__ import annotations

import os
from functools import cache
from pathlib import Path

from hypothesis import assume, example

import kappalat
from kappalat import (
    ArrowLabeling,
    Lattice,
    SetFamilyPoset,
    bits_of,
    build_lattice,
    full_labeling,
    gen_a2,
    gen_boolean,
    gen_chain,
    gen_ex424,
    gen_ex426,
    gen_fig1,
    gen_weak_dihedral,
    gen_weak_sym,
    is_ice_interval,
    is_wide_interval,
    jlabel,
    semidistributive_witness,
)
from kappalat.errors import (
    CyclicCovers,
    DuplicateName,
    NoBoundedStructure,
    NotALattice,
    RedundantCover,
    UnknownName,
)
from strategies import build


@cache
def corpus() -> tuple[tuple[str, Lattice], ...]:
    """Every lattice the identity suite runs over."""
    items = [
        ("fig1", gen_fig1()),
        ("a2", gen_a2()),
        ("ex424", gen_ex424()),
        ("ex426", gen_ex426()),
    ]
    items += [(f"chain({k})", gen_chain(k)) for k in range(1, 11)]
    items += [(f"boolean({k})", gen_boolean(k)) for k in range(1, 6)]
    items += [(f"weak_sym({k})", gen_weak_sym(k)) for k in range(2, 6)]
    items += [(f"weak_dihedral({k})", gen_weak_dihedral(k)) for k in range(2, 13)]
    return tuple(items)


@cache
def labeled_corpus():
    return tuple((name, lat, full_labeling(lat)) for name, lat in corpus())


def small_labeled_corpus(limit: int = 40):
    return [(name, lat, lab) for name, lat, lab in labeled_corpus() if lat.n <= limit]


def corpus_examples(*extra, limit=None):
    """Give a @given(lattices()) test each corpus lattice of at most limit
    elements as an explicit example, with extra as its further arguments.

    Corpus ids are a linear extension, so strategies.build rebuilds each
    lattice with the same ids, masks and covers.  Hypothesis runs explicit
    examples from the last one attached to the first, and before any
    random draw, so attaching them in reverse runs them in corpus order.
    """

    def attach(test):
        for _, lat in reversed(corpus()):
            if limit is None or lat.n <= limit:
                test = example((lat.n, list(lat.covers)), *extra)(test)
        return test

    return attach


def sd_lattice(order) -> tuple[Lattice, ArrowLabeling]:
    """The lattice of a drawn (n, covers) order and its labeling; Hypothesis
    rejects the draw unless the lattice is semidistributive."""
    lat = build(*order)
    assume(semidistributive_witness(lat) is None)
    return lat, full_labeling(lat)


def m3() -> Lattice:
    """The diamond M3: three atoms a, b, c; neither join- nor meet-semidistributive."""
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("a", "0"), ("b", "0"), ("c", "0"), ("1", "a"), ("1", "b"), ("1", "c")],
    )


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key of the canonical member order: cardinality, then lex over ascending ids."""
    return mask.bit_count(), tuple(bits_of(mask))


def brute_family(lattice: Lattice, labeling, kind: str) -> SetFamilyPoset:
    """The derived poset of kind, one interval and one pair of sets at a time.

    The intervals in lex order, filtered by is_wide_interval or
    is_ice_interval; each distinct jlabel set with its first interval as
    witness; the sets sorted by canonical_key; and the Hasse edges as
    the pairs of sets with no third set strictly between them.
    """
    keep = {"all": None, "wide": is_wide_interval, "ice": is_ice_interval}[kind]
    first: dict[int, tuple[int, int]] = {}
    for iv in lattice.intervals():
        if keep is None or keep(lattice, iv):
            first.setdefault(jlabel(lattice, labeling, iv), iv)
    members = sorted(first, key=canonical_key)
    r = range(len(members))
    # above[i] / below[i]: the sets strictly containing / inside set i
    above = [sum(1 << k for k in r if k != i and members[i] & ~members[k] == 0) for i in r]
    below = [0] * len(members)
    for i in r:
        for k in bits_of(above[i]):
            below[k] |= 1 << i
    hasse = sorted((k, i) for i in r for k in bits_of(above[i]) if not above[i] & below[k])
    return SetFamilyPoset(
        kind=kind,
        members=tuple(members),
        hasse=tuple(hasse),
        witnesses=tuple(first[m] for m in members),
    )


def brute_join(lattice: Lattice, xs) -> int | None:
    """Unique minimal common upper bound by leq scan, or None."""
    xs = list(xs)
    uppers = [y for y in range(lattice.n) if all(lattice.leq(x, y) for x in xs)]
    minimal = [
        y for y in uppers if not any(z != y and lattice.leq(z, y) for z in uppers)
    ]
    return minimal[0] if len(minimal) == 1 else None


def brute_meet(lattice: Lattice, xs) -> int | None:
    xs = list(xs)
    lowers = [y for y in range(lattice.n) if all(lattice.leq(y, x) for x in xs)]
    maximal = [
        y for y in lowers if not any(z != y and lattice.leq(y, z) for z in lowers)
    ]
    return maximal[0] if len(maximal) == 1 else None


def brute_covers(lattice: Lattice) -> set[tuple[int, int]]:
    """(upper, lower) cover pairs recomputed from leq alone."""
    n = lattice.n
    pairs = set()
    for lower in range(n):
        for upper in range(n):
            if upper == lower or not lattice.leq(lower, upper):
                continue
            if not any(
                z != lower and z != upper and lattice.leq(lower, z) and lattice.leq(z, upper)
                for z in range(n)
            ):
                pairs.add((upper, lower))
    return pairs


def brute_semidistributive(lattice: Lattice) -> bool:
    """Semidistributivity by the arbitrary-subset definition (both laws).

    For every element a and nonempty subset X: if a v x is constant on X
    then a v meet(X) equals that constant, and dually.  Exponential.
    """
    n = lattice.n
    for xmask in range(1, 1 << n):
        xs = list(bits_of(xmask))
        meet_x = lattice.meet(xs)
        join_x = lattice.join(xs)
        for a in range(n):
            j0 = lattice.join((a, xs[0]))
            if all(lattice.join((a, x)) == j0 for x in xs[1:]):
                if lattice.join((a, meet_x)) != j0:
                    return False
            m0 = lattice.meet((a, xs[0]))
            if all(lattice.meet((a, x)) == m0 for x in xs[1:]):
                if lattice.meet((a, join_x)) != m0:
                    return False
    return True


def brute_tables(lattice: Lattice) -> tuple[list[list[int]], list[list[int]]]:
    """Join and meet tables recomputed pair by pair from leq alone."""
    r = range(lattice.n)
    join = [[brute_join(lattice, (x, y)) for y in r] for x in r]
    meet = [[brute_meet(lattice, (x, y)) for y in r] for x in r]
    return join, meet


def brute_sd_violations(lattice: Lattice) -> set[tuple[str, int, int, int]]:
    """Every (law, a, x, y) breaking a pairwise semidistributive law.

    A finite lattice satisfies the subset laws of brute_semidistributive
    iff it satisfies them for pairs, so this set is empty iff the lattice
    is semidistributive.
    """
    join, meet = brute_tables(lattice)
    n = lattice.n
    found = set()
    for a in range(n):
        for x in range(n):
            for y in range(n):
                v = join[a][x]
                if v == join[a][y] and join[a][meet[x][y]] != v:
                    found.add(("join", a, x, y))
                v = meet[a][x]
                if v == meet[a][y] and meet[a][join[x][y]] != v:
                    found.add(("meet", a, x, y))
    return found


def first_sd_witness(lattice: Lattice) -> tuple[str, int, int, int] | None:
    """The triple semidistributive_witness reports, found from leq alone.

    The join law first, then the meet law.  For each a in id order the
    fibers of x -> a v x (dually a ^ x) are walked in order of their
    first x, and the first pair x < y of a fiber (in lex order) with
    a v (x ^ y) off the fiber value (dually a ^ (x v y)) is returned.
    """
    join, meet = brute_tables(lattice)
    n = lattice.n
    for law, op, dual in (("join", join, meet), ("meet", meet, join)):
        for a in range(n):
            fibers: dict[int, list[int]] = {}
            for x in range(n):
                fibers.setdefault(op[a][x], []).append(x)
            for v, xs in fibers.items():
                for i, x in enumerate(xs):
                    for y in xs[i + 1:]:
                        if op[a][dual[x][y]] != v:
                            return (law, a, x, y)
    return None


def brute_arrow_labels(lattice: Lattice) -> dict[tuple[int, int], tuple[int | None, int | None]]:
    """Per cover (upper, lower): the least x with lower v x = upper and the
    greatest x with upper ^ x = lower, each None when no such extreme exists."""
    join, meet = brute_tables(lattice)
    n = lattice.n
    labels = {}
    for upper, lower in brute_covers(lattice):
        xs = [x for x in range(n) if join[lower][x] == upper]
        least = [x for x in xs if all(lattice.leq(x, y) for y in xs)]
        xs = [x for x in range(n) if meet[upper][x] == lower]
        greatest = [x for x in xs if all(lattice.leq(y, x) for y in xs)]
        labels[(upper, lower)] = (
            least[0] if least else None,
            greatest[0] if greatest else None,
        )
    return labels


def order_closure(n: int, covers) -> list[list[bool]]:
    """leq[x][y] of the reflexive-transitive closure of (upper, lower) pairs."""
    leq = [[x == y for y in range(n)] for x in range(n)]
    for upper, lower in covers:
        leq[lower][upper] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def brute_first_missing_meet(n: int, covers) -> tuple[int, int] | None:
    """First pair (a, b), a < b, without a greatest lower bound, or None.

    Elements 0..n-1 are ordered by the closure of the cover pairs.
    """
    leq = order_closure(n, covers)
    for a in range(n):
        for b in range(a + 1, n):
            lowers = [z for z in range(n) if leq[z][a] and leq[z][b]]
            if not any(all(leq[w][z] for w in lowers) for z in lowers):
                return (a, b)
    return None


def brute_order_defect(n: int, covers) -> tuple[type, str] | None:
    """(error type, message) build_lattice must raise on an order, or None.

    Elements 0..n-1, named "0".."n-1", are listed in a linear extension
    and ordered by the closure of the (upper, lower) pairs.  The first
    pair in sorted order with an element strictly between its ends is an
    implied cover, named with the least such element; then an order
    without exactly one minimal and one maximal element has no bounds;
    then brute_first_missing_meet names the pair without a meet.
    """
    leq = order_closure(n, covers)
    for u, l in sorted(covers):
        between = [z for z in range(n) if z not in (u, l) and leq[l][z] and leq[z][u]]
        if between:
            return RedundantCover, f"cover '{u}' > '{l}' is implied via '{between[0]}'"
    minimal = sum(1 for x in range(n) if not any(leq[y][x] for y in range(n) if y != x))
    maximal = sum(1 for x in range(n) if not any(leq[x][y] for y in range(n) if y != x))
    if minimal != 1 or maximal != 1:
        return NoBoundedStructure, (
            f"{minimal} minimal and {maximal} maximal elements; need exactly one of each"
        )
    missing = brute_first_missing_meet(n, covers)
    if missing is None:
        return None
    a, b = missing
    return NotALattice, f"elements '{a}' and '{b}' have no greatest lower bound"


def order_masks(n: int, covers) -> tuple[list[int], list[int]]:
    """up and down masks of the order generated by (upper, lower) pairs.

    Elements 0..n-1 must be listed in a linear extension.
    """
    up = [1 << x for x in range(n)]
    down = [1 << x for x in range(n)]
    for upper, lower in sorted(covers):
        down[upper] |= down[lower]
    for upper, lower in sorted(covers, reverse=True):
        up[lower] |= up[upper]
    return up, down


def sweep_first_missing_meet(n: int, up, down) -> tuple[int, int] | None:
    """First pair (a, b), a < b, without a greatest lower bound, or None.

    The pair sweep the package used before its cover-local lattice test:
    for each incomparable pair in lex order, the common lower bounds
    down[a] & down[b] must lie below their highest id.  Quadratic in n,
    so it serves as the oracle on inputs too large for
    brute_first_missing_meet.
    """
    full = (1 << n) - 1
    for a in range(n):
        da = down[a]
        incomp = (full & ~(up[a] | da)) >> a
        while incomp:
            low = incomp & -incomp
            b = a + low.bit_length() - 1
            incomp ^= low
            common = da & down[b]
            if common & ~down[common.bit_length() - 1]:
                return (a, b)
    return None


def jirr_sufficiency_failures(lattice: Lattice, labeling) -> tuple[int, ...]:
    """Elements x whose core label set differs from
    {j join-irreducible | j <= x and kappa(j) >= extended_kappa(x)}.

    The per-element, per-join-irreducible rule the package used before
    its table-based sufficiency_failures; built on the single-element
    core_label and extended_kappa.
    """
    from kappalat import core_label, extended_kappa

    failures = []
    for x in range(lattice.n):
        exk_x = extended_kappa(lattice, labeling, x)
        rhs = 0
        for j in bits_of(labeling.jirr):
            if lattice.leq(j, x) and lattice.leq(exk_x, labeling.kappa[j]):
                rhs |= 1 << j
        if core_label(lattice, labeling, x) != rhs:
            failures.append(x)
    return tuple(failures)


def first_input_defect(names, covers) -> tuple[type, str] | None:
    """The first defect of a document's names and covers, item by item.

    (error type, message) of the error build_lattice must raise, or None.
    A repeated name comes first; then, cover by cover in input order, an
    unknown upper or lower name, a self cover or a pair given twice.  This
    is the per-item scan build_lattice ran on every input before it
    validated in bulk.
    """
    seen = set()
    for name in names:
        if name in seen:
            return DuplicateName, f"element name {name!r} occurs more than once"
        seen.add(name)
    pairs = set()
    for upper, lower in covers:
        for name in (upper, lower):
            if name not in seen:
                return UnknownName, f"cover references unknown element {name!r}"
        if upper == lower:
            return CyclicCovers, f"element {upper!r} covers itself"
        if (upper, lower) in pairs:
            return RedundantCover, f"cover {upper!r} > {lower!r} given twice"
        pairs.add((upper, lower))
    return None


def induced_lattice(weak: Lattice, ids) -> Lattice:
    """The order of weak restricted to ids (ascending), through build_lattice.

    The lowest bit of what remains of a kept element's strict up-set
    within the kept set is a cover; clearing that cover's up-set and
    repeating gives all its covers.  build_lattice raises unless the
    induced order is a lattice.
    """
    keep = sum(1 << x for x in ids)
    covers = []
    for x in ids:
        rest = weak.up[x] & keep & ~(1 << x)
        while rest:
            y = (rest & -rest).bit_length() - 1
            covers.append((weak.names[y], weak.names[x]))
            rest &= ~weak.up[y]
    return build_lattice([weak.names[x] for x in ids], covers)


def cambrian_sym(n: int, upper_barred) -> Lattice:
    """The type-A Cambrian lattice of one orientation: c-sortable permutations.

    Each value b in 2..n-1 is upper-barred if it is in upper_barred, else
    lower-barred.  A permutation of {1..n} is kept unless it has adjacent
    entries c, a with a < b < c where b comes after them (b lower-barred)
    or before them (b upper-barred).  The kept permutations form a
    sublattice of the weak order gen_weak_sym(n), so its order restricted
    to them is the Cambrian order.
    """
    weak = gen_weak_sym(n)

    def kept(name: str) -> bool:
        p = [int(d) for d in name]
        for i in range(n - 1):
            for b in range(p[i + 1] + 1, p[i]):
                if (p.index(b) < i) == (b in upper_barred):
                    return False
        return True

    return induced_lattice(weak, [x for x in range(weak.n) if kept(weak.names[x])])


def c_sortable(weak: Lattice, ascents, c) -> list[int]:
    """Ids of the c-sortable elements of a weak order, in ascending order.

    weak and ascents are what weak_order returns; c is a Coxeter element
    as a sequence of generators.  The c-sorting word of w is the lex-first
    subword of c^infinity (by positions) that is a reduced word for w.
    It is found greedily from the identity: each pass through c appends,
    in c's order, every letter s whose product p s covers the prefix p so
    far and lies below w, until p is w.  w is c-sortable when the sets of
    letters of successive passes (its blocks) are nested.
    """
    sortable = []
    for w in range(weak.n):
        p, before = 0, set(c)
        while p != w:
            block = set()
            for s in c:
                q = ascents[p].get(s)
                if q is not None and weak.leq(q, w):
                    p = q
                    block.add(s)
            if not block <= before:
                break
            before = block
        else:
            sortable.append(w)
    return sortable


def per_cover_labels(lattice: Lattice) -> tuple[list[int], list[int]]:
    """Join and meet labels of every cover from the per-cover kernels, -1 where missing."""
    from kappalat._backend import cover_join_label, cover_meet_label

    up, down = lattice.up, lattice.down
    return (
        [cover_join_label(up, down, u, l) for u, l in lattice.covers],
        [cover_meet_label(up, down, u, l) for u, l in lattice.covers],
    )


def checkout_env() -> dict[str, str]:
    """The environment with this checkout's kappalat first on PYTHONPATH,
    for a child interpreter."""
    src = str(Path(kappalat.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _phi_sub_mul(x: tuple[int, int], k: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x - k y in Z[phi], each a pair (a, b) = a + b phi, with phi^2 = phi + 1."""
    (a, b), (c, d), (e, f) = x, k, y
    return a - c * e - d * f, b - c * f - d * e - d * f


def _phi_positive(x: tuple[int, int]) -> bool:
    """Whether a + b phi > 0, exactly: 2(a + b phi) = (2a + b) + b sqrt(5)."""
    p, q = 2 * x[0] + x[1], x[1]
    if p >= 0 and q >= 0:
        return p > 0 or q > 0
    if p <= 0 and q <= 0:
        return False
    return (p > 0) == (p * p > 5 * q * q)


def weak_order(coxeter_matrix) -> tuple[Lattice, list[dict[int, int]]]:
    """The right weak order of a finite Coxeter group, by breadth-first search.

    coxeter_matrix[s][t] is the order m of st, 2 to 5.  An element w is
    held as the images w(alpha_s) of the simple roots, with coefficients
    in Z[phi] as pairs (a, b) = a + b phi, so no float rounding merges or
    splits elements.  s(alpha_t) = alpha_t - A[s][t] alpha_s, with
    Cartan entries A[s][t] A[t][s] = 4 cos^2(pi/m): -1 and -1 for m = 3,
    -1 and -2 for m = 4, -phi and -phi for m = 5.  ws covers w iff
    w(alpha_s) is positive (a root's coefficients share one sign), and
    ws(alpha_t) = w(alpha_t) - A[s][t] w(alpha_s).  Elements are named
    by their first-found reduced word ("e" for the identity) and listed
    in breadth-first order, a linear extension.  Returns the lattice and
    its ascents: ascents[x] maps each s with x s covering x to the id of
    x s.
    """
    r = len(coxeter_matrix)
    entries = {2: ((0, 0), (0, 0)), 3: ((-1, 0), (-1, 0)), 4: ((-1, 0), (-2, 0)),
               5: ((0, -1), (0, -1))}
    cartan = [[(2, 0)] * r for _ in range(r)]
    for s in range(r):
        for t in range(s + 1, r):
            cartan[s][t], cartan[t][s] = entries[coxeter_matrix[s][t]]
    identity = tuple(tuple((int(i == s), 0) for i in range(r)) for s in range(r))
    words = {identity: ""}
    queue = [identity]
    covers = []
    for w in queue:
        for s in range(r):
            if not any(map(_phi_positive, w[s])):
                continue
            ws = tuple(
                tuple(_phi_sub_mul(c, cartan[s][t], d) for c, d in zip(w[t], w[s]))
                for t in range(r)
            )
            if ws not in words:
                words[ws] = words[w] + str(s)
                queue.append(ws)
            covers.append((ws, w, s))
    names = {w: word or "e" for w, word in words.items()}
    lattice = build_lattice(list(names.values()), [(names[u], names[l]) for u, l, _ in covers])
    ids = {name: x for x, name in enumerate(lattice.names)}
    ascents: list[dict[int, int]] = [{} for _ in range(lattice.n)]
    for u, l, s in covers:
        ascents[ids[names[l]]][s] = ids[names[u]]
    return lattice, ascents
