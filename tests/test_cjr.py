"""Canonical join representations, extended kappa, and the two orders."""

import pytest
from hypothesis import given

from helpers import (
    corpus_examples,
    labeled_corpus,
    sd_lattice,
    small_labeled_corpus,
    verify_cjr_oracle,
)
from kappalat import (
    bits_of,
    cjr,
    clo_leq,
    compare_orders,
    extended_kappa,
    first_order_mismatch,
    full_labeling,
    gen_a2,
    gen_chain,
    gen_ex424,
    gen_ex426,
    gen_fig1,
    gen_weak_dihedral,
    gen_weak_sym,
    kappa_leq,
    mask_of,
    order_poset,
    sufficiency_failures,
    x_down,
)
from strategies import lattices

EX424_KAPPA_EDGES = {
    ("1", "x"), ("1", "y"), ("1", "z"), ("1", "j4"),
    ("x", "j1"), ("x", "j2"),
    ("y", "j1"), ("y", "j3"),
    ("z", "j2"), ("z", "j3"),
    ("j1", "0"), ("j2", "0"), ("j3", "0"), ("j4", "0"),
}

EX424_CLO_EDGES = {
    ("1", "x"), ("1", "y"), ("1", "z"),
    ("x", "j1"), ("x", "j2"), ("x", "j4"),
    ("y", "j1"), ("y", "j3"),
    ("z", "j2"), ("z", "j3"), ("z", "j4"),
    ("j1", "0"), ("j2", "0"), ("j3", "0"), ("j4", "0"),
}


def _named_edges(lat, relation):
    return {(lat.names[u], lat.names[l]) for u, l in relation.hasse}


def _assert_join_complex_is_flag(lat, lab):
    """The canonical join complex is flag: the cliques of the graph on jirr
    with i ~ j iff i <= kappa(j) and j <= kappa(i), read off lab.kappa and
    lat.down alone, are exactly the canonical join representations (Barnard,
    Electron. J. Combin. 2019; Reading-Speyer-Thomas, arXiv:1907.08050)."""
    down, kappa, jirr = lat.down, lab.kappa, lab.jirr
    compatible = {
        j: mask_of(i for i in bits_of(jirr) if down[kappa[j]] >> i & 1 and down[kappa[i]] >> j & 1)
        for j in bits_of(jirr)
    }
    cliques = []

    def grow(clique, candidates):
        cliques.append(clique)
        for i in bits_of(candidates):
            # only larger ids extend it, so each clique is reached once
            grow(clique | 1 << i, candidates & compatible[i] & -(2 << i))

    grow(0, jirr)
    assert sorted(cliques) == sorted(cjr(lat, lab, x) for x in range(lat.n))


@given(lattices())
@corpus_examples()
def test_join_complex_is_flag_on_random_lattices(order):
    _assert_join_complex_is_flag(*sd_lattice(order))


class TestCjr:
    def test_bottom_is_empty_join(self):
        for _, lat, lab in labeled_corpus():
            assert cjr(lat, lab, lat.bottom) == 0

    def test_fig1_top_region(self):
        lat = gen_fig1()
        lab = full_labeling(lat)
        rep = cjr(lat, lab, lat.id_of("0*"))
        assert {lat.names[j] for j in bits_of(rep)} == {"1", "2", "3"}

    def test_ex424_x(self):
        lat = gen_ex424()
        lab = full_labeling(lat)
        rep = cjr(lat, lab, lat.id_of("x"))
        assert {lat.names[j] for j in bits_of(rep)} == {"j1", "j2"}

    def test_irreducible_is_own_joinand(self):
        for _, lat, lab in labeled_corpus():
            for j in bits_of(lab.jirr):
                assert cjr(lat, lab, j) == 1 << j

    def test_oracle_examples(self):
        lat = gen_a2()
        x = lat.id_of("x")
        # x = z v w is canonical (the down-arrow labels of x are w and z);
        # {y, w} joins to x but fails to refine {z, w}
        assert verify_cjr_oracle(lat, x, mask_of([lat.id_of("z"), lat.id_of("w")]))
        assert not verify_cjr_oracle(lat, x, mask_of([lat.id_of("y"), lat.id_of("w")]))
        assert not verify_cjr_oracle(
            lat, x, mask_of([lat.id_of("y"), lat.id_of("z"), lat.id_of("w")])
        )
        chain = gen_chain(3)
        assert verify_cjr_oracle(chain, chain.top, 1 << chain.top)
        # {1, 2} joins to 2 and refines every representation of 2, but 1 < 2,
        # so only the antichain condition rejects it
        assert not verify_cjr_oracle(chain, 2, 0b110)
        # {1} is an antichain, and every set with join 2 holds an element
        # above 1, but {1} joins to 1, so only the join condition rejects it
        assert not verify_cjr_oracle(chain, 2, 0b010)


class TestExtendedKappa:
    def test_fig1_examples(self):
        lat = gen_fig1()
        lab = full_labeling(lat)
        assert lat.names[extended_kappa(lat, lab, lat.id_of("5*"))] == "1"
        assert lat.names[extended_kappa(lat, lab, lat.id_of("0"))] == "0*"
        assert lat.names[extended_kappa(lat, lab, lat.id_of("0*"))] == "0"

    def test_ex424_x(self):
        lat = gen_ex424()
        lab = full_labeling(lat)
        assert lat.names[extended_kappa(lat, lab, lat.id_of("x"))] == "j3"

    def test_restricts_to_kappa(self):
        for _, lat, lab in labeled_corpus():
            for j, m in lab.kappa.items():
                assert extended_kappa(lat, lab, j) == m


class TestCoreInterval:
    def test_x_down_examples(self):
        lat = gen_ex424()
        assert lat.names[x_down(lat, lat.id_of("j4"))] == "j2"
        assert x_down(lat, lat.bottom) == lat.bottom
        lat = gen_ex426()
        assert lat.names[x_down(lat, lat.id_of("5*"))] == "0"


class TestOrders:
    def test_kappa_leq_examples(self):
        lat = gen_ex424()
        lab = full_labeling(lat)
        assert not kappa_leq(lat, lab, lat.id_of("j4"), lat.id_of("x"))
        lat = gen_ex426()
        lab = full_labeling(lat)
        assert kappa_leq(lat, lab, lat.id_of("4"), lat.id_of("5*"))
        for x in range(lat.n):
            assert kappa_leq(lat, lab, x, x)

    def test_clo_leq_examples(self):
        lat = gen_ex424()
        lab = full_labeling(lat)
        assert clo_leq(lat, lab, lat.id_of("j4"), lat.id_of("x"))
        lat = gen_ex426()
        lab = full_labeling(lat)
        assert clo_leq(lat, lab, lat.id_of("4"), lat.id_of("5*"))
        for y in range(lat.n):
            assert clo_leq(lat, lab, lat.bottom, y)

    def test_ex424_orders_match_figures(self):
        lat = gen_ex424()
        lab = full_labeling(lat)
        assert _named_edges(lat, order_poset(lat, lab, "kappa")) == EX424_KAPPA_EDGES
        assert _named_edges(lat, order_poset(lat, lab, "clo")) == EX424_CLO_EDGES

    def test_relations_are_partial_orders(self):
        for _, lat, lab in small_labeled_corpus(40):
            for kind in ("kappa", "clo"):
                rel = order_poset(lat, lab, kind)
                for x in range(lat.n):
                    assert rel.leq(x, x)
                    for y in bits_of(rel.up[x]):
                        if x != y:
                            assert not rel.leq(y, x)
                        assert rel.up[y] & ~rel.up[x] == 0  # transitivity

    def test_coincide(self):
        lat = gen_fig1()
        lab = full_labeling(lat)
        assert compare_orders(lat, lab)[0] is None
        sym3 = gen_weak_sym(3)
        assert compare_orders(sym3, full_labeling(sym3))[0] is None

    def test_ex424_divergence(self):
        lat = gen_ex424()
        lab = full_labeling(lat)
        x, y = first_order_mismatch(lat, lab)
        assert (lat.names[x], lat.names[y]) == ("j4", "x")

    def test_sufficient_condition(self):
        lat = gen_fig1()
        lab = full_labeling(lat)
        assert not compare_orders(lat, lab)[1]
        lat = gen_ex424()
        lab = full_labeling(lat)
        failures = sufficiency_failures(lat, lab)
        assert failures and lat.names[failures[0]] == "x"
        for n in range(2, 7):
            dih = gen_weak_dihedral(n)
            assert not compare_orders(dih, full_labeling(dih))[1]

    def test_sufficient_implies_coincide(self):
        for _, lat, lab in labeled_corpus():
            mismatch, failures = compare_orders(lat, lab)
            if not failures:
                assert mismatch is None

    def test_bad_kind(self):
        lat = gen_a2()
        lab = full_labeling(lat)
        with pytest.raises(ValueError):
            order_poset(lat, lab, "nope")
