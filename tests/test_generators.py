"""Structural claims about each parametric lattice family."""

from itertools import permutations

import pytest

from kappalat import (
    gen_boolean,
    gen_chain,
    gen_weak_dihedral,
    gen_weak_sym,
    join_irreducibles,
)
from kappalat.errors import TooLarge


def _isomorphic(a, b) -> bool:
    if a.n != b.n:
        return False
    for perm in permutations(range(a.n)):
        if all(
            a.leq(x, y) == b.leq(perm[x], perm[y])
            for x in range(a.n)
            for y in range(a.n)
        ):
            return True
    return False


class TestParametricFamilies:
    def test_chain(self):
        single = gen_chain(1)
        assert single.n == 1 and single.top == single.bottom
        assert gen_chain(7).interval_count() == 7 * 8 // 2

    def test_boolean(self):
        diamond = gen_boolean(2)
        assert diamond.n == 4
        assert len(diamond.cover_ups[diamond.bottom]) == 2
        cube = gen_boolean(3)
        assert cube.n == 8 and len(cube.covers) == 12

    def test_weak_sym_small(self):
        assert gen_weak_sym(1).n == 1
        two = gen_weak_sym(2)
        assert two.n == 2 and len(two.covers) == 1
        assert gen_weak_sym(3).n == 6

    def test_weak_sym_4_irreducibles(self):
        lat = gen_weak_sym(4)
        assert lat.n == 24
        # join-irreducibles of the weak order = permutations with one descent
        expected = sum(
            1
            for p in permutations(range(1, 5))
            if sum(p[i] > p[i + 1] for i in range(3)) == 1
        )
        assert join_irreducibles(lat).bit_count() == expected

    def test_dihedral_2_is_diamond(self):
        assert _isomorphic(gen_weak_dihedral(2), gen_boolean(2))

    def test_dihedral_3_is_sym_3(self):
        assert _isomorphic(gen_weak_dihedral(3), gen_weak_sym(3))

    def test_dihedral_structure(self):
        lat = gen_weak_dihedral(9)
        assert lat.n == 18
        assert len(lat.cover_ups[lat.bottom]) == 2
        assert len(lat.cover_downs[lat.top]) == 2

    def test_caps(self):
        with pytest.raises(TooLarge):
            gen_chain(5001)
        with pytest.raises(TooLarge):
            gen_boolean(13)
        with pytest.raises(TooLarge):
            gen_weak_sym(7)
        with pytest.raises(TooLarge):
            gen_weak_dihedral(1001)
        with pytest.raises(TooLarge):
            gen_chain(0)
