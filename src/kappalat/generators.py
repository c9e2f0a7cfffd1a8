"""Built-in lattices: fixed worked examples plus parametric test families.

The fixed lattices (fig1, a2, ex424, ex426) are small semidistributive
lattices with fully known labelings, orbit structures, and derived
posets; the parametric families (chains, Boolean lattices, weak orders
of symmetric and dihedral groups) exercise the library at scale.
"""

from __future__ import annotations

from itertools import permutations

from .errors import TooLarge
from .lattice import Lattice, build_lattice

CHAIN_CAP = 5000
BOOLEAN_CAP = 12
WEAK_SYM_CAP = 6
WEAK_DIHEDRAL_CAP = 1000


def gen_fig1() -> Lattice:
    """12-element lattice of torsion classes of a string algebra on 3 vertices."""
    names = ["0", "1", "2", "3", "4", "4*", "5", "5*", "2*", "1*", "3*", "0*"]
    covers = [
        ("1", "0"),
        ("2", "0"),
        ("3", "0"),
        ("4", "3"),
        ("4*", "1"),
        ("4*", "3"),
        ("5", "2"),
        ("0*", "1*"),
        ("0*", "2*"),
        ("0*", "3*"),
        ("5*", "2"),
        ("2*", "4*"),
        ("2*", "4"),
        ("3*", "5"),
        ("3*", "1"),
        ("1*", "5*"),
        ("1*", "5"),
        ("5*", "4"),
    ]
    return build_lattice(names, covers)


def gen_a2() -> Lattice:
    """5-element lattice of torsion classes of the path algebra of 1 -> 2."""
    names = ["0", "z", "w", "y", "x"]
    covers = [("x", "y"), ("x", "w"), ("y", "z"), ("z", "0"), ("w", "0")]
    return build_lattice(names, covers)


def gen_ex424() -> Lattice:
    """9-element congruence-uniform lattice whose two derived orders differ."""
    names = ["0", "j1", "j2", "j3", "j4", "x", "y", "z", "1"]
    covers = [
        ("1", "x"),
        ("1", "y"),
        ("1", "z"),
        ("x", "j1"),
        ("x", "j4"),
        ("y", "j1"),
        ("y", "j3"),
        ("z", "j3"),
        ("z", "j4"),
        ("j4", "j2"),
        ("j1", "0"),
        ("j2", "0"),
        ("j3", "0"),
    ]
    return build_lattice(names, covers)


def gen_ex426() -> Lattice:
    """14-element lattice of torsion classes of a bound cyclic-quiver algebra."""
    names = ["0", "1", "2", "3", "4", "5", "6", "1*", "2*", "3*", "4*", "5*", "6*", "0*"]
    covers = [
        ("6*", "5"),
        ("5*", "1"),
        ("1", "0"),
        ("3*", "5"),
        ("4", "2"),
        ("1*", "4*"),
        ("6*", "3"),
        ("2*", "6"),
        ("0*", "2*"),
        ("6", "3"),
        ("3", "0"),
        ("2*", "6*"),
        ("5", "1"),
        ("0*", "3*"),
        ("3*", "5*"),
        ("4*", "2"),
        ("1*", "4"),
        ("0*", "1*"),
        ("2", "0"),
        ("5*", "4"),
        ("4*", "6"),
    ]
    return build_lattice(names, covers)


def gen_chain(n: int) -> Lattice:
    """Chain with n elements named "0" .. "n-1" from the bottom."""
    if not 1 <= n <= CHAIN_CAP:
        raise TooLarge(f"chain size must be in 1..{CHAIN_CAP}, got {n}")
    names = [str(i) for i in range(n)]
    covers = [(str(i + 1), str(i)) for i in range(n - 1)]
    return build_lattice(names, covers)


def gen_boolean(n: int) -> Lattice:
    """Boolean lattice of subsets of an n-set, named by membership bitstrings."""
    if not 1 <= n <= BOOLEAN_CAP:
        raise TooLarge(f"boolean rank must be in 1..{BOOLEAN_CAP}, got {n}")
    names = ["".join("1" if (s >> i) & 1 else "0" for i in range(n)) for s in range(1 << n)]
    covers = [
        (names[s], names[s & ~(1 << i)])
        for s in range(1 << n)
        for i in range(n)
        if (s >> i) & 1
    ]
    return build_lattice(names, covers)


def gen_weak_sym(n: int) -> Lattice:
    """Right weak order on permutations of {1..n}, one-line notation names.

    Covers swap an ascent at adjacent positions: v covers u when
    v = u . s_i and the inversion count grows by one.
    """
    if not 1 <= n <= WEAK_SYM_CAP:
        raise TooLarge(f"symmetric group rank must be in 1..{WEAK_SYM_CAP}, got {n}")

    def name(p: tuple[int, ...]) -> str:
        return "".join(str(d) for d in p)

    perms = sorted(permutations(range(1, n + 1)), key=_inversions)
    names = [name(p) for p in perms]
    covers = []
    for p in perms:
        for i in range(n - 1):
            if p[i] < p[i + 1]:
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                covers.append((name(q), name(p)))
    return build_lattice(names, covers)


def _inversions(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for k in range(i + 1, len(p)) if p[i] > p[k])


def gen_weak_dihedral(n: int) -> Lattice:
    """Weak order of the dihedral group I2(n): two chains between e and w0.

    Elements are named by their reduced words in the generators a, b
    ("e" and "w0" for the ends); each chain ascends by appending the
    alternate generator on the right.
    """
    if not 2 <= n <= WEAK_DIHEDRAL_CAP:
        raise TooLarge(f"dihedral order must be in 2..{WEAK_DIHEDRAL_CAP}, got {n}")
    chain_a = [("ab" * n)[:k] for k in range(1, n)]
    chain_b = [("ba" * n)[:k] for k in range(1, n)]
    names = ["e", *chain_a, *chain_b, "w0"]
    covers = [(chain_a[0], "e"), (chain_b[0], "e")]
    for chain in (chain_a, chain_b):
        covers.extend((chain[k + 1], chain[k]) for k in range(len(chain) - 1))
        covers.append(("w0", chain[-1]))
    return build_lattice(names, covers)


FAMILIES = {
    "fig1": gen_fig1,
    "a2": gen_a2,
    "ex424": gen_ex424,
    "ex426": gen_ex426,
    "chain": gen_chain,
    "boolean": gen_boolean,
    "weak_sym": gen_weak_sym,
    "weak_dihedral": gen_weak_dihedral,
}

PARAMETRIC = ("chain", "boolean", "weak_sym", "weak_dihedral")
