"""Shared fixtures: the test corpus and independent brute-force oracles.

The oracles only use the leq relation, never the bitmask shortcuts or
the arrow labelings, so they stay independent of the code paths they
check.
"""

from __future__ import annotations

from functools import cache

from kappalat import (
    Lattice,
    bits_of,
    full_labeling,
    gen_a2,
    gen_boolean,
    gen_chain,
    gen_ex424,
    gen_ex426,
    gen_fig1,
    gen_weak_dihedral,
    gen_weak_sym,
)


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


def small_corpus(limit: int = 12):
    return [(name, lat) for name, lat in corpus() if lat.n <= limit]


def small_labeled_corpus(limit: int = 40):
    return [(name, lat, lab) for name, lat, lab in labeled_corpus() if lat.n <= limit]


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
