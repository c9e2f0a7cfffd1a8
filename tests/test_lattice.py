"""Lattice construction, validation errors, and order queries."""

import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_covers,
    brute_join,
    brute_meet,
    corpus,
    corpus_examples,
    first_input_defect,
    m3,
    small_labeled_corpus,
)
from kappalat import (
    Lattice,
    bits_of,
    build_lattice,
    cjr,
    clo_leq,
    core_label,
    down_jlabel,
    extended_kappa,
    full_labeling,
    gen_a2,
    gen_boolean,
    gen_chain,
    gen_fig1,
    join_label,
    kappa,
    kappa_dual,
    kappa_leq,
    meet_label,
    up_jlabel,
    x_down,
)
from kappalat import _backend
from kappalat._bits import pick
from kappalat.errors import (
    CyclicCovers,
    DuplicateName,
    InternalInvariant,
    InvalidInterval,
    NoBoundedStructure,
    NotALattice,
    RedundantCover,
    TooLarge,
    UnknownElement,
    UnknownName,
)
from kappalat.lattice import _raise_first_defect, _topological_order
from strategies import build, large_orders, lattices


# Each public function or Lattice query method that takes element ids, with
# x as one of them; on gen_chain(3) (ids 0..2, arrows (1, 0) and (2, 1))
# every other id is valid.
ELEMENT_QUERIES = {
    "leq_a": lambda lat, lab, x: lat.leq(x, 0),
    "leq_b": lambda lat, lab, x: lat.leq(0, x),
    "join": lambda lat, lab, x: lat.join([0, x]),
    "meet": lambda lat, lab, x: lat.meet([0, x]),
    "star_down": lambda lat, lab, x: lat.star_down(x),
    "star_up": lambda lat, lab, x: lat.star_up(x),
    "join_label_upper": lambda lat, lab, x: join_label(lat, (x, 1)),
    "join_label_lower": lambda lat, lab, x: join_label(lat, (2, x)),
    "meet_label_upper": lambda lat, lab, x: meet_label(lat, (x, 1)),
    "meet_label_lower": lambda lat, lab, x: meet_label(lat, (2, x)),
    "kappa": lambda lat, lab, x: kappa(lat, x),
    "kappa_dual": lambda lat, lab, x: kappa_dual(lat, x),
    "down_jlabel": lambda lat, lab, x: down_jlabel(lat, lab, x),
    "up_jlabel": lambda lat, lab, x: up_jlabel(lat, lab, x),
    "x_down": lambda lat, lab, x: x_down(lat, x),
    "cjr": lambda lat, lab, x: cjr(lat, lab, x),
    "extended_kappa": lambda lat, lab, x: extended_kappa(lat, lab, x),
    "core_label": lambda lat, lab, x: core_label(lat, lab, x),
    "kappa_leq_x": lambda lat, lab, x: kappa_leq(lat, lab, x, 0),
    "kappa_leq_y": lambda lat, lab, x: kappa_leq(lat, lab, 0, x),
    "clo_leq_x": lambda lat, lab, x: clo_leq(lat, lab, x, 0),
    "clo_leq_y": lambda lat, lab, x: clo_leq(lat, lab, 0, x),
}


def chain3() -> Lattice:
    return build_lattice(["0", "a", "1"], [("a", "0"), ("1", "a")])


def diamond() -> Lattice:
    return build_lattice(
        ["0", "a", "b", "1"], [("1", "a"), ("1", "b"), ("a", "0"), ("b", "0")]
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
        with pytest.raises(CyclicCovers, match="^element 'a' covers itself$"):
            build_lattice(["a", "b"], [("a", "a"), ("b", "a")])
        with pytest.raises(CyclicCovers, match="^element 'b' covers itself$"):
            build_lattice(["a", "b"], [("b", "a"), ("b", "b")])

    def test_cycle(self):
        # every element on or above a cycle stays unplaced (a, b, c, d and 1
        # in the second case); the walk starts at the one of least input
        # position, which lies above the cycle in the third case (x)
        cases = [
            (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], "'a' > 'b' > 'c' > 'a'"),
            (
                ["0", "a", "b", "c", "d", "1"],
                [("a", "0"), ("b", "a"), ("a", "b"), ("c", "b"), ("d", "c"), ("1", "d")],
                "'a' > 'b' > 'a'",
            ),
            (
                ["x", "0", "a", "b", "1"],
                [("x", "a"), ("a", "0"), ("b", "a"), ("a", "b"), ("1", "x")],
                "'a' > 'b' > 'a'",
            ),
        ]
        for names, covers, cycle in cases:
            with pytest.raises(CyclicCovers, match=f"^covers form a cycle: {cycle}$"):
                build_lattice(names, covers)

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

    def test_not_a_lattice_below_two_reducibles(self):
        # every element with two or more upper covers is their meet, and the
        # meet-irreducibles m1..m5 meet pairwise, yet p12 and p13 (both
        # meet-reducible) have two maximal lower bounds c, d
        ps = {"p12": ("m1", "m2"), "p13": ("m1", "m3"), "p23": ("m2", "m3")}
        covers = [("c", "0"), ("d", "0"), ("m4", "c"), ("m5", "d")]
        covers += [(p, cd) for p in ps for cd in ("c", "d")]
        covers += [(m, p) for p, ms in ps.items() for m in ms]
        covers += [("1", f"m{i}") for i in range(1, 6)]
        names = ["0", "c", "d", *ps, "m1", "m2", "m3", "m4", "m5", "1"]
        with pytest.raises(NotALattice, match="^elements 'p12' and 'p13' have no"):
            build_lattice(names, covers)

    def test_row_search_that_finds_no_pair_reports_a_broken_invariant(self):
        # every meet of fig1 exists, so the pair search, which runs only
        # after the lower-cover test failed, must not hand back None
        lat = gen_fig1()
        message = "^the lower-cover test failed but no row lacks a meet$"
        with pytest.raises(InternalInvariant, match=message):
            _backend.first_failing_pair(lat.down, lat.cover_downs)

    def test_item_scan_that_finds_no_defect_reports_a_broken_invariant(self):
        # the scan runs only after a bulk input test failed, so a clean
        # input, on which every bulk test passes, must not pass it silently
        names = ["0", "a", "1"]
        index = {name: i for i, name in enumerate(names)}
        message = "^a bulk input test failed but the scan finds no defect$"
        with pytest.raises(InternalInvariant, match=message):
            _raise_first_defect(names, index, [("a", "0"), ("1", "a")])

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

    @pytest.mark.parametrize(
        "first, second",
        [
            ("unknown", "self"),
            ("self", "repeated"),
            ("repeated", "unknown"),
            ("duplicate_name", "unknown"),
            ("duplicate_name", "self"),
            ("duplicate_name", "repeated"),
        ],
    )
    def test_first_of_two_defects_is_named(self, first, second):
        base = gen_fig1()
        names = list(base.names)
        covers = [(base.names[u], base.names[l]) for u, l in base.covers]
        defects = {
            "unknown": ("cover", [("2", "nowhere"), ("nowhere", "3"), ("nowhere", "elsewhere")]),
            "self": ("cover", [("3", "3"), ("nowhere", "nowhere")]),
            "repeated": ("cover", covers[3:6]),
            "duplicate_name": ("name", ["5", "0*"]),
        }
        rng = random.Random(f"{first} {second}")
        for kinds in ((first, second), (second, first)):
            for _ in range(10):
                doc_names, doc_covers = list(names), list(covers)
                # the second defect goes after the first, so input order decides
                at = rng.randrange(len(doc_covers) + 1)
                for kind in kinds:
                    where, items = defects[kind]
                    item = rng.choice(items)
                    if where == "name":
                        doc_names.insert(rng.randrange(len(doc_names) + 1), item)
                    else:
                        at = rng.randint(at, len(doc_covers))
                        doc_covers.insert(at, item)
                        at += 1
                error, message = first_input_defect(doc_names, doc_covers)
                with pytest.raises(error) as info:
                    build_lattice(doc_names, doc_covers)
                assert type(info.value) is error and str(info.value) == message


@given(lattices(), st.randoms(use_true_random=True))
def test_kahn_order_of_a_linear_extension_is_the_identity(order, rng):
    n, covers = order
    lowers = [[l for u, l in covers if u == x] for x in range(n)]
    # a random linear extension: place a random element whose lower covers are placed
    position: dict[int, int] = {}
    while len(position) < n:
        ready = [
            x for x in range(n) if x not in position and all(l in position for l in lowers[x])
        ]
        position[rng.choice(ready)] = len(position)
    pairs = [(position[u], position[l]) for u, l in covers]
    rng.shuffle(pairs)
    names = [str(x) for x in sorted(position, key=position.get)]
    assert _topological_order(names, pairs) == list(range(n))
    lat = build_lattice(names, [(str(u), str(l)) for u, l in covers])
    assert lat.names == tuple(names)
    assert lat.covers == tuple(sorted((position[u], position[l]) for u, l in covers))


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
        assert lat.cover_downs[lat.top] == (lat.id_of("a"),)
        fig = gen_fig1()
        assert {fig.names[x] for x in fig.cover_downs[fig.id_of("2*")]} == {"4*", "4"}
        assert {fig.names[x] for x in fig.cover_ups[fig.id_of("0")]} == {"1", "2", "3"}

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

    @pytest.mark.parametrize("x", [-1, 3])
    @pytest.mark.parametrize("query", ELEMENT_QUERIES.values(), ids=ELEMENT_QUERIES)
    def test_element_ids_are_checked(self, query, x):
        lat = gen_chain(3)
        assert lat.check_element(2) == 2
        with pytest.raises(UnknownElement, match=rf"^no element with id {x}$"):
            query(lat, full_labeling(lat), x)

    def test_star_examples(self):
        lat = chain3()
        assert lat.star_down(lat.top) == lat.id_of("a")
        assert lat.star_down(lat.bottom) == lat.bottom
        assert lat.star_up(lat.top) == lat.top
        fig = gen_fig1()
        assert fig.names[fig.star_down(fig.id_of("4"))] == "3"
        assert fig.names[fig.star_up(fig.id_of("1*"))] == "0*"

    def test_unknown_element(self):
        lat = gen_a2()
        with pytest.raises(UnknownElement, match=r"^no element named 'nope'$"):
            lat.id_of("nope")
        # an unhashable name is unknown too, not a TypeError
        with pytest.raises(UnknownElement, match=r"^no element named \['x'\]$"):
            lat.id_of(["x"])


def _assert_cover_lists(lat):
    """cover_ups / cover_downs are the cover pairs' ends, in ascending id order."""
    ups = [[] for _ in range(lat.n)]
    downs = [[] for _ in range(lat.n)]
    for u, l in sorted(lat.covers, key=lambda pair: pair[::-1]):
        ups[l].append(u)
    for u, l in lat.covers:
        downs[u].append(l)
    for x in range(lat.n):
        assert list(lat.cover_ups[x]) == sorted(ups[x])
        assert list(lat.cover_downs[x]) == sorted(downs[x])


class TestInvariants:
    @settings(max_examples=60)
    @given(st.one_of(lattices(), large_orders()))
    @corpus_examples()
    def test_cover_lists_ascending_on_random_lattices(self, order):
        try:
            lat = build(*order)
        except NotALattice:
            return
        _assert_cover_lists(lat)

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

    @settings(max_examples=60)
    @given(st.data())
    def test_join_is_least_upper_bound(self, data):
        boolean = gen_boolean(4)
        lattices = [gen_fig1(), gen_a2(), boolean]
        lat = data.draw(st.sampled_from(lattices))
        xs = data.draw(st.lists(st.integers(0, lat.n - 1), max_size=5))
        assert lat.join(xs) == (brute_join(lat, xs) if xs else lat.bottom)
        assert lat.meet(xs) == (brute_meet(lat, xs) if xs else lat.top)


def _assert_or_tables(lat: Lattice, rng: random.Random) -> None:
    """or_below/or_above against the OR of the seeds over each down-set/up-set."""
    seeds = [rng.getrandbits(rng.choice((1, 8, 70))) for _ in range(lat.n)]
    below, above = lat.or_below(seeds), lat.or_above(seeds)
    for x in range(lat.n):
        assert below[x] == reduce(or_, pick(seeds, lat.down[x]), 0)
        assert above[x] == reduce(or_, pick(seeds, lat.up[x]), 0)


class TestOrTables:
    @settings(max_examples=60)
    @given(lattices(), st.randoms(use_true_random=False))
    @corpus_examples(random.Random(11))
    def test_random_lattices(self, order, rng):
        _assert_or_tables(build(*order), rng)
