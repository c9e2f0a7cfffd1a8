"""Lattice construction, validation errors, and order queries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_covers, brute_join, brute_meet, corpus, small_labeled_corpus
from kappalat import Lattice, bits_of, build_lattice, gen_a2, gen_boolean, gen_fig1
from kappalat.errors import (
    CyclicCovers,
    DuplicateName,
    InvalidInterval,
    NoBoundedStructure,
    NotALattice,
    RedundantCover,
    TooLarge,
    UnknownElement,
    UnknownName,
)


def chain3() -> Lattice:
    return build_lattice(["0", "a", "1"], [("a", "0"), ("1", "a")])


def diamond() -> Lattice:
    return build_lattice(
        ["0", "a", "b", "1"], [("1", "a"), ("1", "b"), ("a", "0"), ("b", "0")]
    )


def m3() -> Lattice:
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("a", "0"), ("b", "0"), ("c", "0"), ("1", "a"), ("1", "b"), ("1", "c")],
    )


class TestBuild:
    def test_chain(self):
        lat = chain3()
        assert lat.n == 3
        assert lat.names[lat.bottom] == "0"
        assert lat.names[lat.top] == "1"

    def test_fig1(self):
        lat = gen_fig1()
        assert lat.n == 12
        assert len(lat.covers) == 18
        assert lat.names[lat.bottom] == "0"
        assert lat.names[lat.top] == "0*"

    def test_diamond_and_m3_are_lattices(self):
        assert diamond().n == 4
        assert m3().n == 5

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            build_lattice(["a", "a"], [])

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            build_lattice(["a", "b"], [("a", "c")])

    def test_self_cover(self):
        with pytest.raises(CyclicCovers):
            build_lattice(["a", "b"], [("a", "a"), ("b", "a")])

    def test_cycle(self):
        with pytest.raises(CyclicCovers):
            build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_redundant_cover(self):
        with pytest.raises(RedundantCover):
            build_lattice(["0", "a", "1"], [("a", "0"), ("1", "a"), ("1", "0")])

    def test_repeated_cover(self):
        with pytest.raises(RedundantCover):
            build_lattice(["0", "1"], [("1", "0"), ("1", "0")])

    def test_not_a_lattice(self):
        # two incomparable elements with two minimal common upper bounds
        with pytest.raises(NotALattice):
            build_lattice(
                ["0", "a", "b", "x", "y", "1"],
                [
                    ("a", "0"),
                    ("b", "0"),
                    ("x", "a"),
                    ("x", "b"),
                    ("y", "a"),
                    ("y", "b"),
                    ("1", "x"),
                    ("1", "y"),
                ],
            )

    def test_not_a_lattice_pendant_bowtie(self):
        # every element is the meet of the meet-irreducibles above it, yet
        # a and b (both meet-irreducible) have two maximal lower bounds c, d
        with pytest.raises(NotALattice, match="'a' and 'b'"):
            build_lattice(
                ["0", "c", "d", "a", "b", "e", "f", "1"],
                [
                    ("c", "0"),
                    ("d", "0"),
                    ("a", "c"),
                    ("a", "d"),
                    ("b", "c"),
                    ("b", "d"),
                    ("e", "c"),
                    ("f", "d"),
                    ("1", "a"),
                    ("1", "b"),
                    ("1", "e"),
                    ("1", "f"),
                ],
            )

    def test_no_bounds(self):
        with pytest.raises(NoBoundedStructure):
            build_lattice(["a", "b", "c"], [("a", "c"), ("b", "c")])
        with pytest.raises(NoBoundedStructure):
            build_lattice([], [])

    def test_too_large(self):
        names = [str(i) for i in range(5001)]
        covers = [(str(i + 1), str(i)) for i in range(5000)]
        with pytest.raises(TooLarge):
            build_lattice(names, covers)

    def test_ids_form_linear_extension(self):
        for _, lat in corpus():
            for a in range(lat.n):
                for b in bits_of(lat.up[a]):
                    assert a <= b

    def test_input_order_invariance(self):
        # shuffling names and covers yields the same lattice up to names
        base = gen_fig1()
        rng = random.Random(7)
        names = list(base.names)
        covers = [(base.names[u], base.names[l]) for u, l in base.covers]
        rng.shuffle(names)
        rng.shuffle(covers)
        other = build_lattice(names, covers)
        for x in names:
            for y in names:
                assert base.leq(base.id_of(x), base.id_of(y)) == other.leq(
                    other.id_of(x), other.id_of(y)
                )

    def test_rebuild_is_deterministic(self):
        lat = gen_fig1()
        again = build_lattice(
            list(lat.names), [(lat.names[u], lat.names[l]) for u, l in lat.covers]
        )
        assert again.names == lat.names
        assert again.covers == lat.covers


class TestQueries:
    def test_leq_examples(self):
        lat = chain3()
        assert lat.leq(0, 2)
        fig = gen_fig1()
        assert fig.leq(fig.id_of("4"), fig.id_of("2*"))
        assert not fig.leq(fig.id_of("1"), fig.id_of("2"))

    def test_join_meet_examples(self):
        fig = gen_fig1()
        assert fig.join([]) == fig.bottom
        assert fig.meet([]) == fig.top
        assert fig.names[fig.join([fig.id_of("1"), fig.id_of("3")])] == "4*"
        a2 = gen_a2()
        assert a2.names[a2.meet([a2.id_of("y"), a2.id_of("w")])] == "0"

    def test_covers_queries(self):
        lat = chain3()
        assert lat.covers_down(lat.top) == (lat.id_of("a"),)
        fig = gen_fig1()
        assert {fig.names[x] for x in fig.covers_down(fig.id_of("2*"))} == {"4*", "4"}
        assert {fig.names[x] for x in fig.covers_up(fig.id_of("0"))} == {"1", "2", "3"}

    def test_interval_counts(self):
        two = build_lattice(["0", "1"], [("1", "0")])
        assert list(two.intervals()) == [(0, 0), (0, 1), (1, 1)]
        assert gen_a2().interval_count() == 13
        assert diamond().interval_count() == 9

    def test_intervals_lex_order_and_count(self):
        for _, lat in corpus():
            ivs = list(lat.intervals())
            assert ivs == sorted(ivs)
            assert len(ivs) == lat.interval_count()
            assert len(ivs) == sum(m.bit_count() for m in lat.up)

    def test_check_interval(self):
        a2 = gen_a2()
        with pytest.raises(InvalidInterval):
            a2.check_interval((a2.id_of("x"), a2.id_of("y")))

    def test_star_examples(self):
        lat = chain3()
        assert lat.star_down(lat.top) == lat.id_of("a")
        assert lat.star_down(lat.bottom) == lat.bottom
        assert lat.star_up(lat.top) == lat.top
        fig = gen_fig1()
        assert fig.names[fig.star_down(fig.id_of("4"))] == "3"
        assert fig.names[fig.star_up(fig.id_of("1*"))] == "0*"

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            gen_a2().id_of("nope")


class TestInvariants:
    def test_cover_round_trip(self):
        for _, lat in corpus():
            named = {(lat.names[u], lat.names[l]) for u, l in lat.covers}
            rebuilt = build_lattice(list(lat.names), sorted(named))
            assert {(rebuilt.names[u], rebuilt.names[l]) for u, l in rebuilt.covers} == named

    def test_covers_match_brute_force(self):
        for _, lat, _ in small_labeled_corpus(40):
            assert set(lat.covers) == brute_covers(lat)

    def test_join_meet_against_brute_force(self):
        for _, lat, _ in small_labeled_corpus(40):
            for x in range(lat.n):
                for y in range(x, lat.n):
                    assert lat.join([x, y]) == brute_join(lat, [x, y])
                    assert lat.meet([x, y]) == brute_meet(lat, [x, y])

    def test_join_meet_algebra(self):
        for _, lat, _ in small_labeled_corpus(40):
            n = lat.n
            for x in range(n):
                assert lat.join([x, x]) == x and lat.meet([x, x]) == x
                for y in range(n):
                    j = lat.join([x, y])
                    m = lat.meet([x, y])
                    assert j == lat.join([y, x]) and m == lat.meet([y, x])
                    assert lat.leq(x, j) and lat.leq(m, x)
            if n <= 12:
                for x in range(n):
                    for y in range(n):
                        for z in range(n):
                            assert lat.join([lat.join([x, y]), z]) == lat.join([x, y, z])
                            assert lat.meet([lat.meet([x, y]), z]) == lat.meet([x, y, z])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_join_is_least_upper_bound(self, data):
        boolean = gen_boolean(4)
        lattices = [gen_fig1(), gen_a2(), boolean]
        lat = data.draw(st.sampled_from(lattices))
        xs = data.draw(st.lists(st.integers(0, lat.n - 1), max_size=5))
        assert lat.join(xs) == (brute_join(lat, xs) if xs else lat.bottom)
        assert lat.meet(xs) == (brute_meet(lat, xs) if xs else lat.top)
