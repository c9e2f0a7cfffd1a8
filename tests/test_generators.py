"""Structural claims about each built-in lattice family."""

from itertools import permutations

import pytest

from helpers import labeled_corpus
from kappalat import (
    bits_of,
    compare_orders,
    full_labeling,
    gen_a2,
    gen_boolean,
    gen_chain,
    gen_ex424,
    gen_ex426,
    gen_fig1,
    gen_weak_dihedral,
    gen_weak_sym,
    join_irreducibles,
    semidistributive_witness,
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


class TestFixedLattices:
    def test_fig1(self):
        lat = gen_fig1()
        assert join_irreducibles(lat).bit_count() == 5
        assert lat.names[lat.top] == "0*" and lat.names[lat.bottom] == "0"
        assert len(lat.covers) == 18

    def test_a2(self):
        lat = gen_a2()
        assert lat.n == 5
        assert lat.interval_count() == 13
        jirr = {lat.names[j] for j in bits_of(join_irreducibles(lat))}
        assert jirr == {"y", "z", "w"}

    def test_ex424(self):
        lat = gen_ex424()
        assert semidistributive_witness(lat) is None
        lab = full_labeling(lat)
        assert compare_orders(lat, lab)[0] is not None
        assert {lat.names[j] for j in bits_of(lab.jirr)} == {"j1", "j2", "j3", "j4"}

    def test_ex426(self):
        lat = gen_ex426()
        assert lat.n == 14 and len(lat.covers) == 21
        lab = full_labeling(lat)
        assert compare_orders(lat, lab)[0] is None
        for i in "123456":
            assert lat.names[lab.kappa[lat.id_of(i)]] == i + "*"

    def test_fixed_lattices_semidistributive(self):
        for gen in (gen_fig1, gen_a2, gen_ex424, gen_ex426):
            assert semidistributive_witness(gen()) is None


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
        two = gen_weak_sym(2)
        assert two.n == 2 and len(two.covers) == 1
        three = gen_weak_sym(3)
        assert three.n == 6
        assert semidistributive_witness(three) is None
        assert compare_orders(three, full_labeling(three))[0] is None

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

    def test_weak_orders_are_lattices(self):
        for n in range(1, 6):
            gen_weak_sym(n)  # build_lattice validates

    def test_dihedral_2_is_diamond(self):
        assert _isomorphic(gen_weak_dihedral(2), gen_boolean(2))

    def test_dihedral_3_is_sym_3(self):
        assert _isomorphic(gen_weak_dihedral(3), gen_weak_sym(3))

    def test_dihedral_structure(self):
        lat = gen_weak_dihedral(9)
        assert lat.n == 18
        assert len(lat.cover_ups[lat.bottom]) == 2
        assert len(lat.cover_downs[lat.top]) == 2
        assert semidistributive_witness(lat) is None

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

    def test_weak_orders_coincide(self):
        for name, lat, lab in labeled_corpus():
            if name.startswith("weak"):
                assert compare_orders(lat, lab)[0] is None
