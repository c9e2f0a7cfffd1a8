"""Acceptance suite: one test per criterion, each printing a pass line.

This is the one place that checks the paper's examples (Tables 1 and 2,
the order figures, ex424's divergence, the extended kappa orbits) and the
identities asserted over the whole corpus (the kappa bijection, canonical
join representations, the small exhaustive oracles, the JSON round trip);
the unit test modules do not repeat these checks.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
import time
from collections import Counter
from itertools import combinations, permutations

import pytest

from helpers import (
    brute_first_missing_meet,
    brute_semidistributive,
    c_sortable,
    cambrian_sym,
    corpus,
    induced_lattice,
    jlabel_scan,
    m3,
    verify_cjr_oracle,
    weak_order,
)
from kappalat import (
    bits_of,
    cjr,
    clo_leq,
    compare_orders,
    core_label,
    derived_poset,
    down_jlabel,
    emit_lattice,
    extended_kappa_table,
    full_labeling,
    gen_a2,
    gen_chain,
    gen_ex424,
    gen_ex426,
    gen_fig1,
    gen_weak_dihedral,
    gen_weak_sym,
    is_ice_interval,
    is_wide_interval,
    jlabel,
    kappa_leq,
    order_poset,
    parse_lattice,
    semidistributive_witness,
    up_jlabel,
)
from kappalat.errors import NotALattice

from strategies import build, random_bounded_poset

FIG1_FAMILIES = {
    "all": [
        "", "1", "2", "3", "4", "5", "13", "14", "15", "24", "25", "34", "35",
        "125", "134", "135", "234", "245", "1245", "2345", "12345",
    ],
    "wide": ["", "1", "2", "3", "4", "5", "13", "14", "35", "125", "234", "12345"],
    "ice": [
        "", "1", "2", "3", "4", "5", "13", "14", "25", "34", "35",
        "125", "134", "234", "2345", "12345",
    ],
}

A2_INTERVALS = [
    ("0", "x"), ("0", "y"), ("0", "z"), ("0", "w"), ("0", "0"), ("w", "x"),
    ("w", "w"), ("z", "x"), ("z", "y"), ("z", "z"), ("y", "x"), ("y", "y"), ("x", "x"),
]
A2_WIDE_INTERVALS = [iv for iv in A2_INTERVALS if iv not in (("0", "y"), ("z", "x"))]
A2_ICE_INTERVALS = [iv for iv in A2_INTERVALS if iv != ("z", "x")]
A2_FAMILIES = {
    "all": ["", "y", "z", "w", "yz", "yw", "yzw"],
    "wide": ["", "y", "z", "w", "yzw"],
    "ice": ["", "y", "z", "w", "yz", "yzw"],
}

FIG1_ORDER_EDGES = {
    ("1", "0"), ("2", "0"), ("3", "0"), ("4", "0"), ("5", "0"),
    ("1*", "3"), ("1*", "5"),
    ("2*", "1"), ("2*", "4"),
    ("3*", "1"), ("3*", "2"), ("3*", "5"),
    ("4*", "1"), ("4*", "3"),
    ("5*", "2"), ("5*", "3"), ("5*", "4"),
    ("0*", "1*"), ("0*", "2*"), ("0*", "3*"), ("0*", "4*"), ("0*", "5*"),
}

EX426_ORDER_EDGES = (
    {(str(i), "0") for i in range(1, 7)}
    | {("0*", f"{i}*") for i in range(1, 7)}
    | {("6*", "1"), ("6*", "3"), ("6*", "5")}
    | {("5*", "1"), ("5*", "2"), ("5*", "4")}
    | {("4*", "2"), ("4*", "3"), ("4*", "6")}
    | {("3*", "2"), ("3*", "5")}
    | {("2*", "1"), ("2*", "6")}
    | {("1*", "3"), ("1*", "4")}
)


def _family_strings(lat, fam):
    return sorted("".join(lat.names[j] for j in bits_of(m)) for m in fam.members)


def _set_strings(lat, names):
    return sorted("".join(sorted(s, key=lat.id_of)) for s in names)


def _report(num: int, what: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, f"criterion {num}: {what} took {elapsed:.3f}s, budget {budget:g}s"
    print(f"PASS criterion {num}: {what} ({elapsed:.3f}s, budget {budget:g}s)")


def test_criterion_1_table1():
    t0 = time.perf_counter()
    lat = gen_fig1()
    lab = full_labeling(lat)
    sizes = {}
    for kind, expected in FIG1_FAMILIES.items():
        fam = derived_poset(lat, lab, kind)
        assert _family_strings(lat, fam) == _set_strings(lat, expected)
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
        assert _family_strings(lat, fam) == _set_strings(lat, expected)
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
        assert len(by_kappa.hasse) == len(expected)
    _report(3, "kappa and clo orders agree and match the expected diagrams", time.perf_counter() - t0, 0.1)


def test_criterion_4_divergent_example():
    t0 = time.perf_counter()
    lat = gen_ex424()
    lab = full_labeling(lat)
    (x, y), failures = compare_orders(lat, lab)
    assert (lat.names[x], lat.names[y]) == ("j4", "x")
    assert clo_leq(lat, lab, x, y) and not kappa_leq(lat, lab, x, y)
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
    for name, lat in corpus.__wrapped__():
        lab = full_labeling(lat)
        assert sorted(lab.kappa) == list(bits_of(lab.jirr))
        assert sorted(lab.kappa_dual) == list(bits_of(lab.mirr))
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
    assert brute_semidistributive(m3()) is False
    for name, lat in corpus.__wrapped__():
        if lat.n > 12:
            continue
        assert (semidistributive_witness(lat) is None) == brute_semidistributive(lat)
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
        assert compare_orders(lat, lab) == (None, ())
    _report(8, "kappa and core label orders coincide on all weak orders", time.perf_counter() - t0, 30.0)


def test_criterion_8_weak_sym_6():
    t0 = time.perf_counter()
    lat = gen_weak_sym(6)
    lab = full_labeling(lat)
    assert compare_orders(lat, lab) == (None, ())
    _report(8, "weak_sym(6) orders coincide", time.perf_counter() - t0, 30.0)


def test_criterion_9_round_trip():
    t0 = time.perf_counter()
    for name, lat in corpus.__wrapped__():
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


def _theorem(lat, ranks=None):
    """Check the isomorphism theorem on the semidistributive lattice lat and
    return (labeling, clo): x -> core(x) carries clo, which equals the kappa
    order, onto the wide poset; clo is a lattice graded by the number of
    lower covers, with rank sizes ranks when given."""
    assert semidistributive_witness(lat) is None
    lab = full_labeling(lat)
    image, wide = _core_map(lat, lab)
    assert image is not None
    clo = order_poset(lat, lab, "clo")
    assert {(image[u], image[l]) for u, l in clo.hasse} == set(wide.hasse)
    assert clo.up == order_poset(lat, lab, "kappa").up
    assert compare_orders(lat, lab) == (None, ())
    assert build(lat.n, clo.hasse).n == lat.n
    lowers = [len(downs) for downs in lat.cover_downs]
    assert all(lowers[u] == lowers[l] + 1 for u, l in clo.hasse)
    if ranks is not None:
        assert sorted(Counter(lowers).items()) == list(enumerate(ranks))
    return lab, clo


def test_criterion_11_isomorphism_theorem():
    # The wide label sets, the kappa order and the core label order are
    # isomorphic posets, with x -> core(x) carrying clo onto the wide poset;
    # on a Coxeter group's weak order clo is the shard intersection order,
    # a graded lattice ranked by descents (Reading, arXiv:0909.3288).
    t0 = time.perf_counter()
    # rank sizes by descents: Eulerian numbers for S_n, 1/2m-2/1 for I_2(m)
    eulerian = {3: [1, 4, 1], 4: [1, 11, 11, 1], 5: [1, 26, 66, 26, 1],
                6: [1, 57, 302, 302, 57, 1]}
    cases = [(gen_weak_sym(k), ranks) for k, ranks in eulerian.items()]
    cases += [(gen_weak_dihedral(m), [1, 2 * m - 2, 1]) for m in range(2, 13)]
    cases += [(gen_fig1(), None), (gen_ex426(), None)]
    # the brute lattice test, too slow for weak_sym(6), cross-checks build
    brute = [gen_weak_sym(k) for k in (3, 4, 5)] + [gen_weak_dihedral(m) for m in (3, 5, 8)]
    for lat, ranks in cases:
        _, clo = _theorem(lat, ranks)
        if lat in brute:
            assert _is_lattice(lat.n, clo.hasse)
    # the negative case: ex424's wide family has more sets than elements,
    # and its core label order is not a lattice
    lat = gen_ex424()
    lab = full_labeling(lat)
    image, wide = _core_map(lat, lab)
    assert image is None
    assert {core_label(lat, lab, x) for x in range(lat.n)} < set(wide.members)
    clo = order_poset(lat, lab, "clo")
    assert not _is_lattice(lat.n, clo.hasse)
    with pytest.raises(NotALattice):
        build(lat.n, clo.hasse)
    _report(11, "wide poset, kappa order and clo are isomorphic; clo is the shard intersection lattice",
            time.perf_counter() - t0, 5.0)


def _partition_pairs(n, links):
    """The partition of {1..n} generated by joining each linked pair, as
    its set of pairs (a, b), a < b, in one block; refinement is inclusion."""
    block = {v: {v} for v in range(1, n + 1)}
    for a, c in links:
        if block[a] is not block[c]:
            merged = block[a] | block[c]
            for v in merged:
                block[v] = merged
    return frozenset((a, b) for a in range(1, n + 1) for b in block[a] if a < b)


def _noncrossing(n, circle):
    """Pair sets of the partitions of {1..n} noncrossing in the circular order."""
    found = set()
    for labels in _set_partitions(n):
        at = [labels[v - 1] for v in circle]
        if not any(
            at[i] == at[k] != at[j] == at[m] for i, j, k, m in combinations(range(n), 4)
        ):
            found.add(frozenset(
                (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                if labels[a - 1] == labels[b - 1]
            ))
    return found


def _set_partitions(n):
    """Every partition of {1..n} as block labels by value, in restricted-growth form."""
    labels = [[0]]
    for _ in range(1, n):
        labels = [ls + [b] for ls in labels for b in range(max(ls) + 2)]
    return labels


def test_criterion_12_cambrian_lattices():
    # The torsion classes of a type-A path algebra form a Cambrian lattice,
    # the c-sortable permutations (Ingalls-Thomas, arXiv:math/0612219), and
    # its core label order is the noncrossing partition lattice NC_c
    # (Reading, arXiv:0909.3288).  Checked for every orientation, n = 4..6.
    t0 = time.perf_counter()
    sizes = {4: (14, [1, 6, 6, 1], 28), 5: (42, [1, 10, 20, 10, 1], 120),
             6: (132, [1, 15, 50, 50, 15, 1], 495)}
    for n, (catalan, narayana, edges) in sizes.items():
        for k in range(n - 1):
            for upper in combinations(range(2, n), k):
                lat = cambrian_sym(n, set(upper))
                assert lat.n == catalan
                # graded by the number of lower covers, ranks of Narayana sizes
                lab, clo = _theorem(lat, narayana)
                assert len(clo.hasse) == edges
                # x -> the partition joining a and c for each label (one
                # descent c, a each) of core(x) is an isomorphism onto NC_c
                descent = {}
                for j in bits_of(lab.jirr):
                    p = [int(d) for d in lat.names[j]]
                    descents = [(p[i], p[i + 1]) for i in range(n - 1) if p[i] > p[i + 1]]
                    assert len(descents) == 1, lat.names[j]
                    descent[j] = descents[0]
                parts = [
                    _partition_pairs(n, map(descent.get, bits_of(core_label(lat, lab, x))))
                    for x in range(lat.n)
                ]
                lower = [b for b in range(2, n) if b not in upper]
                circle = [1, *lower, n, *sorted(upper, reverse=True)]
                assert len(set(parts)) == lat.n
                assert set(parts) == _noncrossing(n, circle)
                for x in range(lat.n):
                    assert clo.up[x] == sum(1 << y for y in range(lat.n) if parts[x] <= parts[y])
                if n <= 5:
                    assert _is_lattice(lat.n, clo.hasse)
    _report(12, "on all 28 type-A Cambrian lattices, clo is the noncrossing partition lattice",
            time.perf_counter() - t0, 5.0)


def test_criterion_15_type_a_ice_counts():
    # The ICE-closed subcategories of a type-A path algebra are counted by
    # the large Schroeder numbers whatever the orientation (Enomoto, "Rigid
    # modules and ICE-closed subcategories in quiver representations",
    # J. Algebra 2022), and its torsion classes form the Cambrian lattice of
    # the orientation (Ingalls-Thomas, arXiv:math/0612219), so the ICE
    # label sets of that lattice are as many.  Checked for every
    # orientation, n = 2..6; the Hasse edge counts are pinned as computed.
    t0 = time.perf_counter()
    counts = {2: (2, 1), 3: (6, 7), 4: (22, 41), 5: (90, 231), 6: (394, 1289)}
    for n, (schroeder, edges) in counts.items():
        for k in range(n - 1):
            for upper in combinations(range(2, n), k):
                lat = cambrian_sym(n, set(upper))
                ice = derived_poset(lat, full_labeling(lat), "ice")
                assert (len(ice.members), len(ice.hasse)) == (schroeder, edges), (n, upper)
    _report(15, "on all 31 type-A Cambrian lattices, n = 2..6, the ICE label sets are counted "
            "by the large Schroeder numbers", time.perf_counter() - t0, 5.0)


def _coxeter_matrix(rank, edges):
    """m[s][t] = 2 but for the (s, t, m) diagram edges, 1 on the diagonal."""
    m = [[1 if s == t else 2 for t in range(rank)] for s in range(rank)]
    for s, t, order in edges:
        m[s][t] = m[t][s] = order
    return m


# (type, |W|, Coxeter diagram edges (s, t, m), W-Eulerian rank sizes,
# W-Catalan number, W-Narayana rank sizes)
COXETER_TYPES = [
    ("B3", 48, 3, [(0, 1, 4), (1, 2, 3)], [1, 23, 23, 1], 20, [1, 9, 9, 1]),
    ("H3", 120, 3, [(0, 1, 5), (1, 2, 3)], [1, 59, 59, 1], 32, [1, 15, 15, 1]),
    ("D4", 192, 4, [(0, 1, 3), (1, 2, 3), (1, 3, 3)], [1, 44, 102, 44, 1], 50, [1, 12, 24, 12, 1]),
    ("B4", 384, 4, [(0, 1, 4), (1, 2, 3), (2, 3, 3)], [1, 76, 230, 76, 1], 70, [1, 16, 36, 16, 1]),
    ("F4", 1152, 4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)], [1, 236, 678, 236, 1], 105,
     [1, 24, 55, 24, 1]),
]


def test_criterion_13_coxeter_weak_orders():
    # Criterion 11 on the weak orders of the finite Coxeter types of rank 3
    # and 4 outside type A: clo is the shard intersection order, graded by
    # descents with W-Eulerian rank sizes (Reading, arXiv:0909.3288).
    t0 = time.perf_counter()
    for name, order, rank, edges, rank_sizes, _, _ in COXETER_TYPES:
        lat, _ = weak_order(_coxeter_matrix(rank, edges))
        assert lat.n == order, name
        _theorem(lat, rank_sizes)
    _report(13, "on the weak orders of B3, H3, D4, B4 and F4, clo is a lattice graded by "
            "descents and isomorphic to the wide poset", time.perf_counter() - t0, 5.0)


def _coxeter_elements(rank, edges):
    """One Coxeter element per orientation of the diagram: s before t in c
    for an edge oriented s -> t.  Orderings that orient every edge alike
    differ only by commuting letters, so they give the same element."""
    return list({
        tuple(c.index(s) < c.index(t) for s, t, _ in edges): c for c in permutations(range(rank))
    }.values())


def test_criterion_14_coxeter_cambrian_lattices():
    # Criterion 12 beyond type A: for every Coxeter element c of B3, H3,
    # D4, B4 and F4, the c-sortable elements form the Cambrian lattice of
    # c (Reading, arXiv:math/0507186), with W-Catalan many elements, and
    # its core label order is the noncrossing partition lattice NC_c,
    # graded by lower covers with W-Narayana rank sizes (Reading,
    # arXiv:0909.3288).
    t0 = time.perf_counter()
    count = 0
    for name, _, rank, edges, _, catalan, narayana in COXETER_TYPES:
        weak, ascents = weak_order(_coxeter_matrix(rank, edges))
        coxeter_elements = _coxeter_elements(rank, edges)
        assert len(coxeter_elements) == 2 ** len(edges), name
        for c in coxeter_elements:
            lat = induced_lattice(weak, c_sortable(weak, ascents, c))
            assert lat.n == catalan, (name, c)
            _theorem(lat, narayana)
            count += 1
    assert count == 4 + 4 + 8 + 8 + 8
    _report(14, "on the Cambrian lattices of all 32 Coxeter elements of B3, H3, D4, B4 and F4, "
            "clo is a lattice graded by lower covers with W-Narayana ranks",
            time.perf_counter() - t0, 5.0)
