"""Semidistributivity testing, arrow labels, and the kappa bijection."""

import textwrap

import pytest

import kappalat

from helpers import (
    brute_semidistributive,
    corpus,
    first_sd_witness,
    labeled_corpus,
    m3,
    per_cover_labels,
    run_optimized,
    small_corpus,
    small_labeled_corpus,
)
from kappalat import (
    _backend,
    bits_of,
    build_lattice,
    full_labeling,
    gen_a2,
    gen_boolean,
    gen_chain,
    gen_ex424,
    gen_ex426,
    gen_fig1,
    join_irreducibles,
    join_label,
    kappa,
    kappa_dual,
    mask_of,
    meet_irreducibles,
    meet_label,
    semidistributive_witness,
)
from kappalat._bits import highest_bit, lowest_bit
from kappalat.errors import (
    InternalInvariant,
    NotAnArrow,
    NotJoinIrreducible,
    NotMeetIrreducible,
    NotSemidistributive,
)

# join-irreducible labels of the 18 arrows of the fig1 Hasse quiver
FIG1_LABELS = {
    ("1", "0"): "1",
    ("2", "0"): "2",
    ("3", "0"): "3",
    ("4", "3"): "4",
    ("4*", "1"): "3",
    ("4*", "3"): "1",
    ("5", "2"): "5",
    ("0*", "1*"): "1",
    ("0*", "2*"): "2",
    ("0*", "3*"): "3",
    ("5*", "2"): "3",
    ("2*", "4*"): "4",
    ("2*", "4"): "1",
    ("3*", "5"): "1",
    ("3*", "1"): "2",
    ("1*", "5*"): "5",
    ("1*", "5"): "3",
    ("5*", "4"): "2",
}

# and of the 21 arrows of the ex426 quiver
EX426_LABELS = {
    ("6*", "5"): "3",
    ("5*", "1"): "2",
    ("1", "0"): "1",
    ("3*", "5"): "2",
    ("4", "2"): "4",
    ("1*", "4*"): "4",
    ("6*", "3"): "1",
    ("2*", "6"): "1",
    ("0*", "2*"): "2",
    ("6", "3"): "6",
    ("3", "0"): "3",
    ("2*", "6*"): "6",
    ("5", "1"): "5",
    ("0*", "3*"): "3",
    ("3*", "5*"): "5",
    ("4*", "2"): "3",
    ("1*", "4"): "3",
    ("0*", "1*"): "1",
    ("2", "0"): "2",
    ("5*", "4"): "1",
    ("4*", "6"): "2",
}


def chain_under_m3(length):
    """A chain of length elements whose top is the bottom of an M3."""
    names = [f"c{i}" for i in range(length)] + ["a", "b", "c", "1"]
    covers = [(f"c{i + 1}", f"c{i}") for i in range(length - 1)]
    covers += [(x, f"c{length - 1}") for x in "abc"] + [("1", x) for x in "abc"]
    return build_lattice(names, covers)


class TestSemidistributivity:
    def test_m3_fails_with_witness(self):
        lat = m3()
        w = semidistributive_witness(lat)
        assert w.law == "join"
        assert (lat.names[w.a], lat.names[w.x], lat.names[w.y]) == ("a", "b", "c")

    def test_fixed_lattices_pass(self):
        for gen in (gen_fig1, gen_a2, gen_ex424, gen_ex426):
            assert semidistributive_witness(gen()) is None

    def test_distributive_passes(self):
        assert semidistributive_witness(gen_boolean(3)) is None

    def test_agrees_with_subset_definition(self):
        for _, lat in small_corpus(12):
            assert (semidistributive_witness(lat) is None) == brute_semidistributive(lat)
        assert brute_semidistributive(m3()) is False

    def test_full_labeling_rejects_m3(self):
        with pytest.raises(NotSemidistributive):
            full_labeling(m3())

    def test_full_labeling_reports_a_missing_witness(self, monkeypatch):
        # m3 lacks labels, so a witness search that finds nothing is a bug
        monkeypatch.setattr(kappalat.labeling, "semidistributive_witness", lambda lat: None)
        message = "^an arrow lacks a label but no semidistributive law fails$"
        with pytest.raises(InternalInvariant, match=message):
            full_labeling(m3())

    def test_full_labeling_skips_the_witness_search_when_labels_exist(self, monkeypatch):
        def fail(lat):
            raise AssertionError("witness search on a semidistributive lattice")

        monkeypatch.setattr(kappalat.labeling, "semidistributive_witness", fail)
        full_labeling(gen_fig1())

    def test_witness_sweep_skips_comparable_pairs(self):
        # only a, b, c have incomparable elements, so the fiber sweep costs a
        # few joins per M3 atom plus one rescan of the fiber that fails, not
        # one join per pair of elements
        lat = chain_under_m3(200)
        calls = 0

        def least(mask):
            nonlocal calls
            calls += 1
            return lowest_bit(mask)

        found = _backend._law_witness("join", lat.up, lat.down, least, highest_bit)
        assert calls < 4 * lat.n
        assert found == ("join", *map(lat.id_of, "abc"))
        # the leq-only oracle is quartic in n, so it confirms that triple on
        # a shorter chain under the same M3
        short = chain_under_m3(12)
        assert first_sd_witness(short) == ("join", *map(short.id_of, "abc"))

    def test_witness_pair_search_reports_a_broken_invariant(self):
        # in a chain every fiber of x -> top v x and of x -> bottom ^ x
        # satisfies its law, so no pair of the whole chain can be reported
        lat = gen_chain(4)
        everything = list(range(lat.n))
        with pytest.raises(InternalInvariant, match="^fiber bound escaped but every pair agrees$"):
            _backend._locate_pair(
                lat.up, lat.down, lowest_bit, highest_bit, lat.top, lat.top, everything
            )
        with pytest.raises(InternalInvariant, match="^fiber bound escaped but every pair agrees$"):
            _backend._locate_pair(
                lat.down, lat.up, highest_bit, lowest_bit, lat.bottom, lat.bottom, everything
            )


class TestIrreducibles:
    def test_cover_counts_match_star_definition(self):
        for name, lat, _ in labeled_corpus():
            stars_down = [x for x in range(lat.n) if lat.star_down(x) != x]
            stars_up = [x for x in range(lat.n) if lat.star_up(x) != x]
            assert join_irreducibles(lat) == mask_of(stars_down), name
            assert meet_irreducibles(lat) == mask_of(stars_up), name

    def test_fig1(self):
        lat = gen_fig1()
        assert {lat.names[j] for j in bits_of(join_irreducibles(lat))} == {
            "1", "2", "3", "4", "5",
        }

    def test_a2(self):
        lat = gen_a2()
        expected = {lat.names[j] for j in bits_of(join_irreducibles(lat))}
        assert expected == {"y", "z", "w"}
        assert join_irreducibles(lat) == meet_irreducibles(lat)

    def test_chain(self):
        lat = gen_chain(5)
        assert join_irreducibles(lat) == mask_of(range(1, 5))
        assert meet_irreducibles(lat) == mask_of(range(4))


class TestArrowLabels:
    def test_one_pass_kernel_matches_the_per_cover_kernels(self):
        for name, lat in corpus():
            assert _backend.arrow_labels(lat.up, lat.down, lat.covers) == per_cover_labels(lat)
        lat = m3()
        assert _backend.arrow_labels(lat.up, lat.down, lat.covers) is None

    def test_fig1_examples(self):
        lat = gen_fig1()
        arrow = (lat.id_of("2*"), lat.id_of("4"))
        assert lat.names[join_label(lat, arrow)] == "1"
        arrow = (lat.id_of("1*"), lat.id_of("5*"))
        assert lat.names[join_label(lat, arrow)] == "5"

    def test_chain_label_is_upper(self):
        lat = gen_chain(4)
        for arrow in lat.covers:
            assert join_label(lat, arrow) == arrow[0]

    def test_a2_meet_label(self):
        lat = gen_a2()
        arrow = (lat.id_of("x"), lat.id_of("y"))
        assert lat.names[meet_label(lat, arrow)] == "y"

    def test_not_an_arrow(self):
        lat = gen_a2()
        with pytest.raises(NotAnArrow):
            join_label(lat, (lat.id_of("x"), lat.id_of("z")))

    def test_fig1_full_table(self):
        lat = gen_fig1()
        lab = full_labeling(lat)
        seen = {
            (lat.names[u], lat.names[l]): lat.names[j]
            for (u, l), j in lab.gamma.items()
        }
        assert seen == FIG1_LABELS

    def test_ex426_full_table(self):
        lat = gen_ex426()
        lab = full_labeling(lat)
        seen = {
            (lat.names[u], lat.names[l]): lat.names[j]
            for (u, l), j in lab.gamma.items()
        }
        assert seen == EX426_LABELS

    def test_diamond_labels(self):
        lat = build_lattice(
            ["0", "a", "b", "1"], [("1", "a"), ("1", "b"), ("a", "0"), ("b", "0")]
        )
        a, b = lat.id_of("a"), lat.id_of("b")
        assert join_label(lat, (lat.top, a)) == b
        assert kappa(lat, a) == b
        assert kappa(lat, b) == a


class TestKappa:
    def test_fig1_kappa_is_starred_partner(self):
        lat = gen_fig1()
        for i in "12345":
            assert lat.names[kappa(lat, lat.id_of(i))] == i + "*"

    def test_a2_cycle(self):
        lat = gen_a2()
        for j, m in (("y", "z"), ("z", "w"), ("w", "y")):
            assert lat.names[kappa(lat, lat.id_of(j))] == m
            assert lat.names[kappa_dual(lat, lat.id_of(m))] == j

    def test_chain(self):
        lat = gen_chain(6)
        for j in range(1, 6):
            assert kappa(lat, j) == lat.star_down(j)

    def test_ex424(self):
        lat = gen_ex424()
        assert lat.names[kappa(lat, lat.id_of("j4"))] == "j2"

    def test_rejects_reducible(self):
        lat = gen_fig1()
        with pytest.raises(NotJoinIrreducible):
            kappa(lat, lat.bottom)
        with pytest.raises(NotJoinIrreducible):
            kappa(lat, lat.id_of("2*"))
        with pytest.raises(NotMeetIrreducible):
            kappa_dual(lat, lat.top)

    def test_bijection_identities(self):
        for _, lat, lab in labeled_corpus():
            assert sorted(lab.kappa) == list(bits_of(lab.jirr))
            assert sorted(lab.kappa_dual) == list(bits_of(lab.mirr))
            for j, m in lab.kappa.items():
                assert lab.kappa_dual[m] == j
            for m, j in lab.kappa_dual.items():
                assert lab.kappa[j] == m

    def test_mu_is_kappa_of_gamma(self):
        for _, lat, lab in labeled_corpus():
            for arrow in lat.covers:
                assert lab.mu[arrow] == lab.kappa[lab.gamma[arrow]]

    def test_join_meet_identities(self):
        for _, lat, lab in labeled_corpus():
            for j, m in lab.kappa.items():
                assert lat.join([j, m]) == lat.star_up(m)
                assert lat.meet([j, m]) == lat.star_down(j)

    def test_kappa_membership_criterion(self):
        # x <= kappa(j) exactly when joining x with j versus its lower
        # cover gives different results
        for _, lat, lab in small_labeled_corpus(40):
            for j, m in lab.kappa.items():
                j_star = lat.star_down(j)
                for x in range(lat.n):
                    lhs = lat.leq(x, m)
                    rhs = lat.join([x, j_star]) != lat.join([x, j])
                    assert lhs == rhs


def test_invariant_checks_survive_python_O():
    # a labeling whose kappa_dual sends a meet-irreducible to the bottom
    # reaches the label tables' check; python -O drops asserts but not it
    script = textwrap.dedent(
        """
        from kappalat import derived_poset, full_labeling, gen_fig1
        from kappalat.errors import InternalInvariant

        assert False, "asserts run, so -O is not in effect"
        lat = gen_fig1()
        lab = full_labeling(lat)
        m = next(iter(lab.kappa_dual))
        bad = lab._replace(kappa_dual={**lab.kappa_dual, m: lat.bottom})
        try:
            derived_poset(lat, bad, "wide")
        except InternalInvariant as exc:
            print("InternalInvariant:", exc)
        """
    )
    assert run_optimized(script) == "InternalInvariant: kappa_dual('4*') is not join-irreducible\n"
