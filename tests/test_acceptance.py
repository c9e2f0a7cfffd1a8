"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
import time
from collections import Counter

import pytest

from helpers import brute_first_missing_meet, brute_semidistributive
from kappalat import (
    bits_of,
    cjr,
    clo_leq,
    coincide_sufficient,
    core_label,
    derived_poset,
    down_jlabel,
    emit_lattice,
    extended_kappa_table,
    first_order_mismatch,
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
    is_semidistributive,
    is_wide_interval,
    jlabel,
    jlabel_scan,
    kappa_leq,
    order_poset,
    orders_coincide,
    parse_lattice,
    sufficiency_failures,
    up_jlabel,
    verify_cjr_oracle,
    x_down,
)
from kappalat.errors import NotALattice

from strategies import random_bounded_poset
from test_cjr import EX426_ORDER_EDGES, FIG1_ORDER_EDGES
from test_intervals import (
    A2_FAMILIES,
    A2_ICE_INTERVALS,
    A2_INTERVALS,
    A2_WIDE_INTERVALS,
    FIG1_FAMILIES,
)


def _fresh_corpus():
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
    return items


def _report(num: int, what: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, f"criterion {num}: {what} took {elapsed:.3f}s, budget {budget:g}s"
    print(f"PASS criterion {num}: {what} ({elapsed:.3f}s, budget {budget:g}s)")


def _family_strings(lat, fam):
    return sorted("".join(lat.names[j] for j in bits_of(m)) for m in fam.members)


def _expected_strings(lat, sets):
    return sorted("".join(sorted(s, key=lat.id_of)) for s in sets)


def test_criterion_1_table1():
    t0 = time.perf_counter()
    lat = gen_fig1()
    lab = full_labeling(lat)
    sizes = {}
    for kind, expected in FIG1_FAMILIES.items():
        fam = derived_poset(lat, lab, kind)
        assert _family_strings(lat, fam) == _expected_strings(lat, expected)
        sizes[kind] = len(fam.members)
    # the full family has 21 distinct label sets
    assert (sizes["all"], sizes["wide"], sizes["ice"]) == (21, 12, 16)
    _report(1, "fig1 label families are exactly the expected 21/12/16 sets", time.perf_counter() - t0, 0.1)


def test_criterion_2_table2():
    t0 = time.perf_counter()
    lat = gen_a2()
    lab = full_labeling(lat)
    for kind, expected in A2_FAMILIES.items():
        fam = derived_poset(lat, lab, kind)
        assert _family_strings(lat, fam) == _expected_strings(lat, expected)
    itv = [(lat.names[a], lat.names[b]) for a, b in lat.intervals()]
    witv = [iv for iv in lat.intervals() if is_wide_interval(lat, iv)]
    iitv = [iv for iv in lat.intervals() if is_ice_interval(lat, iv)]
    assert (len(itv), len(witv), len(iitv)) == (13, 11, 12)
    assert sorted(itv) == sorted(A2_INTERVALS)
    assert sorted((lat.names[a], lat.names[b]) for a, b in witv) == sorted(A2_WIDE_INTERVALS)
    assert sorted((lat.names[a], lat.names[b]) for a, b in iitv) == sorted(A2_ICE_INTERVALS)
    _report(2, "a2 interval classification and label families are exact", time.perf_counter() - t0, 0.1)


def test_criterion_3_order_figures():
    t0 = time.perf_counter()
    for lat, expected in ((gen_fig1(), FIG1_ORDER_EDGES), (gen_ex426(), EX426_ORDER_EDGES)):
        lab = full_labeling(lat)
        by_kappa = order_poset(lat, lab, "kappa")
        by_clo = order_poset(lat, lab, "clo")
        assert by_kappa.up == by_clo.up
        assert {(lat.names[u], lat.names[l]) for u, l in by_kappa.hasse} == expected
    _report(3, "kappa and clo orders agree and match the expected diagrams", time.perf_counter() - t0, 0.1)


def test_criterion_4_divergent_example():
    t0 = time.perf_counter()
    lat = gen_ex424()
    lab = full_labeling(lat)
    assert not orders_coincide(lat, lab)
    x, y = first_order_mismatch(lat, lab)
    assert (lat.names[x], lat.names[y]) == ("j4", "x")
    assert clo_leq(lat, lab, x, y) and not kappa_leq(lat, lab, x, y)
    failures = sufficiency_failures(lat, lab)
    assert not coincide_sufficient(lat, lab)
    assert lat.names[failures[0]] == "x"
    _report(4, "ex424 orders diverge at (j4, x); sufficiency fails first at x", time.perf_counter() - t0, 0.1)


def test_criterion_5_extended_kappa_orbits():
    t0 = time.perf_counter()
    cases = {
        gen_fig1(): (["1", "1*", "2", "2*", "3", "3*", "4", "4*", "5", "5*"], ["0", "0*"]),
        gen_ex426(): (
            ["1", "1*", "2", "2*", "3", "3*"],
            ["4", "4*", "5", "5*", "6", "6*"],
            ["0", "0*"],
        ),
    }
    for lat, cycles in cases.items():
        expected = [0] * lat.n
        for cycle in cycles:
            ids = [lat.id_of(name) for name in cycle]
            for i, x in enumerate(ids):
                expected[x] = ids[(i + 1) % len(ids)]
        lab = full_labeling(lat)
        assert list(extended_kappa_table(lat, lab)) == expected
    _report(5, "extended kappa orbits are the expected cycles", time.perf_counter() - t0, 0.1)


def test_criterion_6_identity_suite():
    t0 = time.perf_counter()
    for name, lat in _fresh_corpus():
        lab = full_labeling(lat)
        for j, m in lab.kappa.items():
            assert lab.kappa_dual[m] == j
            assert lat.join([j, m]) == lat.star_up(m)
            assert lat.meet([j, m]) == lat.star_down(j)
        for m, j in lab.kappa_dual.items():
            assert lab.kappa[j] == m
        for arrow in lat.covers:
            assert lab.mu[arrow] == lab.kappa[lab.gamma[arrow]]
        for iv in lat.intervals():
            assert jlabel(lat, lab, iv) == jlabel_scan(lat, lab, iv)
        exk = extended_kappa_table(lat, lab)
        for x in range(lat.n):
            rep = cjr(lat, lab, x)
            ids = list(bits_of(rep))
            assert lat.join(ids) == x
            for i in ids:
                assert lat.up[i] & rep == 1 << i
                for j in ids:
                    if i != j:
                        assert lat.leq(i, lab.kappa[j])
            assert down_jlabel(lat, lab, x) == up_jlabel(lat, lab, exk[x])
            assert lat.join(bits_of(core_label(lat, lab, x))) == x
    _report(6, "labeling identities hold on the whole corpus", time.perf_counter() - t0, 60.0)


def test_criterion_7_small_oracles():
    t0 = time.perf_counter()
    for name, lat in _fresh_corpus():
        if lat.n > 12:
            continue
        assert is_semidistributive(lat) == brute_semidistributive(lat)
        lab = full_labeling(lat)
        for x in range(lat.n):
            assert verify_cjr_oracle(lat, x, cjr(lat, lab, x))
    _report(7, "exhaustive small-instance oracles agree", time.perf_counter() - t0, 30.0)


def test_criterion_8_weak_orders():
    t0 = time.perf_counter()
    for lat in [gen_weak_sym(n) for n in range(2, 6)] + [
        gen_weak_dihedral(n) for n in range(2, 13)
    ]:
        lab = full_labeling(lat)
        assert orders_coincide(lat, lab)
        assert coincide_sufficient(lat, lab)
    _report(8, "kappa and core label orders coincide on all weak orders", time.perf_counter() - t0, 30.0)


def test_criterion_8_weak_sym_6():
    t0 = time.perf_counter()
    lat = gen_weak_sym(6)
    lab = full_labeling(lat)
    assert orders_coincide(lat, lab)
    assert coincide_sufficient(lat, lab)
    _report(8, "weak_sym(6) orders coincide", time.perf_counter() - t0, 30.0)


def test_criterion_9_round_trip():
    t0 = time.perf_counter()
    for name, lat in _fresh_corpus():
        text = emit_lattice(lat)
        again = parse_lattice(text)
        assert again.names == lat.names
        assert again.covers == lat.covers
        assert again.up == lat.up
        assert emit_lattice(again) == text
    _report(9, "canonical JSON round-trips byte-stably on the corpus", time.perf_counter() - t0, 30.0)


def test_criterion_10_large_inputs_parse_fast():
    # these have few elements with two lower covers, the only ones the
    # lattice test checks, so a quadratic check would dominate here
    texts = [emit_lattice(gen_chain(5000)), emit_lattice(gen_weak_dihedral(1000))]
    covers = [[str(u), str(l)] for u, l in random_bounded_poset(random.Random(0), 2998, 3)]
    poset = json.dumps({"elements": [str(x) for x in range(3000)], "covers": covers})
    t0 = time.perf_counter()
    assert [parse_lattice(text).n for text in texts] == [5000, 2000]
    with pytest.raises(NotALattice):
        parse_lattice(poset)
    _report(10, "chain(5000), weak_dihedral(1000) and a 3000-element poset parse", time.perf_counter() - t0, 3.0)


def _core_map(lat, lab):
    """x -> index of core(x) among the wide members, or None where that map
    is not onto the wide family or not injective; and the wide poset."""
    wide = derived_poset(lat, lab, "wide")
    index = {m: i for i, m in enumerate(wide.members)}
    cores = [core_label(lat, lab, x) for x in range(lat.n)]
    if set(cores) != set(index) or len(set(cores)) != lat.n:
        return None, wide
    return [index[c] for c in cores], wide


def _is_lattice(n, hasse):
    """Every pair has a meet and a join in the order with these Hasse pairs."""
    dual = [(lower, upper) for upper, lower in hasse]
    return brute_first_missing_meet(n, hasse) is None and brute_first_missing_meet(n, dual) is None


def test_criterion_11_isomorphism_theorem():
    # The wide label sets, the kappa order and the core label order are
    # isomorphic posets, with x -> core(x) carrying clo onto the wide poset;
    # on a Coxeter group's weak order clo is the shard intersection order,
    # a graded lattice ranked by descents (Reading, arXiv:0909.3288).
    t0 = time.perf_counter()
    lattices = [gen_weak_sym(k) for k in range(3, 7)]
    lattices += [gen_weak_dihedral(k) for k in range(2, 13)] + [gen_fig1(), gen_ex426()]
    for lat in lattices:
        lab = full_labeling(lat)
        image, wide = _core_map(lat, lab)
        assert image is not None
        clo = order_poset(lat, lab, "clo")
        assert {(image[u], image[l]) for u, l in clo.hasse} == set(wide.hasse)
        assert clo.up == order_poset(lat, lab, "kappa").up
    # rank sizes by descents: Eulerian numbers for S_n, 1/2m-2/1 for I_2(m)
    graded = [(3, [1, 4, 1]), (4, [1, 11, 11, 1]), (5, [1, 26, 66, 26, 1])]
    graded = [(gen_weak_sym(k), sizes) for k, sizes in graded]
    graded += [(gen_weak_dihedral(m), [1, 2 * m - 2, 1]) for m in (3, 5, 8)]
    for lat, rank_sizes in graded:
        clo = order_poset(lat, full_labeling(lat), "clo")
        assert _is_lattice(lat.n, clo.hasse)
        descents = [len(lat.cover_downs[x]) for x in range(lat.n)]
        assert all(descents[u] == descents[l] + 1 for u, l in clo.hasse)
        assert sorted(Counter(descents).items()) == list(enumerate(rank_sizes))
    # the negative case: ex424's wide family has more sets than elements,
    # and its core label order is not a lattice
    lat = gen_ex424()
    lab = full_labeling(lat)
    image, wide = _core_map(lat, lab)
    assert image is None
    assert {core_label(lat, lab, x) for x in range(lat.n)} < set(wide.members)
    assert not _is_lattice(lat.n, order_poset(lat, lab, "clo").hasse)
    _report(11, "wide poset, kappa order and clo are isomorphic; clo is the shard intersection lattice",
            time.perf_counter() - t0, 5.0)
