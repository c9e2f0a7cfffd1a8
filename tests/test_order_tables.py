"""The table-based order functions against their single-element oracles.

extended_kappa_table, order_poset, compare_orders and
intervals.label_tables read everything off per-lattice tables; here they
are checked against cjr, extended_kappa, kappa_leq, clo_leq and jlabel,
which compute one element or one interval from the definitions, on the
labeled corpus and on random semidistributive lattices.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given

import kappalat
from helpers import (
    corpus_examples,
    jirr_sufficiency_failures,
    labeled_corpus,
    sd_lattice,
    small_labeled_corpus,
)
from kappalat import (
    Lattice,
    bits_of,
    cjr,
    clo_leq,
    compare_orders,
    emit_lattice,
    extended_kappa,
    extended_kappa_table,
    full_labeling,
    gen_boolean,
    gen_fig1,
    gen_weak_sym,
    jlabel,
    kappa_leq,
    mask_of,
    order_poset,
    x_down,
)
from kappalat.cli import cli_main
from kappalat.errors import InternalInvariant
from kappalat.intervals import derived_poset, label_tables
from kappalat.orders import _check_joinands, _core_labels
from strategies import lattices


def _orders_match_pointwise(lat, lab):
    for kind, leq in (("kappa", kappa_leq), ("clo", clo_leq)):
        rel = order_poset(lat, lab, kind)
        for x in range(lat.n):
            assert rel.up[x] == sum(1 << y for y in range(lat.n) if leq(lat, lab, x, y)), (kind, x)
            # order_poset's proof that both orders refine the lattice order
            assert (rel.up[x] >> x) & 1 and not rel.up[x] & ~lat.up[x], (kind, x)


def _tables_match_pointwise(lat, lab):
    exk = extended_kappa_table(lat, lab)
    assert exk == tuple(extended_kappa(lat, lab, x) for x in range(lat.n))
    # extended_kappa_table's proof that its per-element checks make it a permutation
    assert sorted(exk) == list(range(lat.n))
    failures = jirr_sufficiency_failures(lat, lab)
    by_kappa = order_poset(lat, lab, "kappa").up
    by_clo = order_poset(lat, lab, "clo").up
    mismatch = next(
        ((x, y) for x in range(lat.n) for y in range(lat.n)
         if (by_kappa[x] >> y) & 1 != (by_clo[x] >> y) & 1),
        None,
    )
    assert compare_orders(lat, lab) == (mismatch, failures)
    jirr_ids = list(bits_of(lab.jirr))
    belowj, kge = label_tables(lat, lab, {j: 1 << j for j in jirr_ids})
    pos_belowj, pos_kge = label_tables(lat, lab, {j: 1 << p for p, j in enumerate(jirr_ids)})
    for a, b in lat.intervals():
        expected = jlabel(lat, lab, (a, b))
        assert belowj[b] & kge[a] == expected
        compressed = pos_belowj[b] & pos_kge[a]
        assert sum(1 << jirr_ids[p] for p in bits_of(compressed)) == expected


@given(lattices())
@corpus_examples(limit=40)
def test_orders_match_pointwise_on_random_lattices(order):
    _orders_match_pointwise(*sd_lattice(order))


@given(lattices())
@corpus_examples()
def test_tables_match_pointwise_on_random_lattices(order):
    _tables_match_pointwise(*sd_lattice(order))


def test_check_and_compare_build_each_table_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "weak_sym4.json"
    path.write_text(emit_lattice(gen_weak_sym(4)), encoding="utf-8")
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for module, name in (
        (kappalat._backend, "arrow_labels"),
        (kappalat._backend, "transitive_reduction"),
        (kappalat.orders, "extended_kappa_table"),
        (kappalat.orders, "_core_labels"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert cli_main(["compare", str(path)]) == 0
    assert sorted(calls) == ["_core_labels", "arrow_labels", "extended_kappa_table"]
    calls.clear()
    assert cli_main(["check", str(path)]) == 0
    assert calls == ["arrow_labels"]
    capsys.readouterr()


def _first_joinand_failure(lat, lab, combo):
    """The message _check_joinands gives on a set joining to its join, by leq alone."""
    x = lat.names[lat.join(combo)]
    for i in combo:
        others = [k for k in combo if k != i]
        if any(lat.leq(i, k) for k in others):
            return f"canonical joinands of {x!r} are not an antichain"
        outside = [k for k in others if not lat.leq(k, lab.kappa[i])]
        if outside:
            return (
                f"canonical joinand {lat.names[outside[0]]!r} of {x!r} is not "
                f"below kappa({lat.names[i]!r})"
            )
    return None


def test_joinand_checks_accept_only_the_canonical_representation():
    # the canonical join representation is the only orthogonal antichain of
    # join-irreducibles joining to x; every other set of join-irreducibles
    # joining to x fails the antichain or the kappa test
    for name, lat, lab in small_labeled_corpus(12):
        jirr = list(bits_of(lab.jirr))
        for size in range(len(jirr) + 1):
            for combo in combinations(jirr, size):
                rep, x = mask_of(combo), lat.join(combo)
                expected = _first_joinand_failure(lat, lab, combo)
                assert (expected is None) == (rep == cjr(lat, lab, x))
                if expected is None:
                    assert _check_joinands(lat, lab, x, rep) == list(combo)
                else:
                    with pytest.raises(InternalInvariant) as info:
                        _check_joinands(lat, lab, x, rep)
                    assert str(info.value) == expected


def test_joinand_check_rejects_a_set_that_does_not_join_to_x():
    lat = gen_boolean(2)
    lab = full_labeling(lat)
    message = "canonical joinands of '11' are not join-irreducibles joining to it"
    # '10' alone joins to '10'; the top is not join-irreducible
    assert _raised(_check_joinands, lat, lab, 3, 1 << 1) == message
    assert _raised(_check_joinands, lat, lab, 3, 1 << 3) == message


def test_extended_kappa_table_checks_kappa_orthogonality(monkeypatch):
    # boolean(2) with the top's two arrows swapped and kappa the identity:
    # its canonical joinands 10 and 01 form an antichain joining to 11 and
    # every image check passes, so only 01 <= kappa(10) fails
    lat = gen_boolean(2)
    assert lat.names == ("00", "10", "01", "11")
    lab = full_labeling(lat)
    gamma = {**lab.gamma, (3, 1): lab.gamma[3, 2], (3, 2): lab.gamma[3, 1]}
    bad = lab._replace(gamma=gamma, kappa={1: 1, 2: 2})
    message = "canonical joinand '01' of '11' is not below kappa('10')"
    assert _raised(extended_kappa, lat, bad, 3) == message
    assert _raised(extended_kappa_table, lat, bad) == message
    # should the per-element rerun raise nothing, no table may be returned
    monkeypatch.setattr(kappalat.orders, "extended_kappa", lambda lattice, labeling, x: x)
    message = "the extended kappa table failed a check but every element passes"
    assert _raised(extended_kappa_table, lat, bad) == message


def test_clo_order_checks_each_element_joins_its_core_labels():
    # without kappa_dual every kge mask, hence every core label set, is
    # empty, and the first element above the bottom is not their join
    lat = gen_fig1()
    bad = full_labeling(lat)._replace(kappa_dual={})
    with pytest.raises(InternalInvariant, match=r"^'1' is not the join of its core label set$"):
        order_poset(lat, bad, "clo")


def test_label_tables_reject_a_kappa_dual_value_that_is_not_join_irreducible():
    # one meet-irreducible sent to the bottom, which has no bit in the tables
    lat = gen_fig1()
    lab = full_labeling(lat)
    m = next(iter(lab.kappa_dual))
    bad = lab._replace(kappa_dual={**lab.kappa_dual, m: lat.bottom})
    message = f"kappa_dual({lat.names[m]!r}) is not join-irreducible"
    assert _raised(order_poset, lat, bad, "clo") == message
    assert _raised(derived_poset, lat, bad, "wide") == message


def _first_pointwise_failure(lat, bad):
    """The message of the first x in id order whose single-element
    extended_kappa raises on bad, or None."""
    return next(filter(None, (_raised(extended_kappa, lat, bad, x) for x in range(lat.n))), None)


@pytest.mark.parametrize("name", ["fig1", "ex424", "boolean(3)", "weak_sym(3)"])
def test_table_fails_where_pointwise_fails_first(name):
    # relabel one arrow at a time by the bottom or another join-irreducible;
    # each relabeling fails at some x, and the table must raise the message
    # of the first x in id order whose single-element extended_kappa raises
    lat, lab = next((lat, lab) for n, lat, lab in labeled_corpus() if n == name)
    for arrow in lat.covers:
        for label in (lat.bottom, *bits_of(lab.jirr)):
            if label != lab.gamma[arrow]:
                bad = lab._replace(gamma={**lab.gamma, arrow: label})
                expected = _first_pointwise_failure(lat, bad)
                assert expected is not None, (arrow, label)
                assert _raised(extended_kappa_table, lat, bad) == expected


@pytest.mark.parametrize("name", ["fig1", "ex424", "ex426", "boolean(3)", "weak_sym(4)"])
def test_table_fails_where_pointwise_fails_first_on_random_corruptions(name):
    # one to three arrows relabeled and kappa values moved at once, so
    # that each of the table's checks is sometimes the only one to fail;
    # the table raises what the pointwise scan raises first, or nothing
    lat, lab = next((lat, lab) for n, lat, lab in labeled_corpus() if n == name)
    rng = random.Random(name)
    for _ in range(400):
        gamma, kappa = dict(lab.gamma), dict(lab.kappa)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                gamma[rng.choice(lat.covers)] = rng.randrange(lat.n)
            else:
                kappa[rng.choice(list(kappa))] = rng.randrange(lat.n)
        bad = lab._replace(gamma=gamma, kappa=kappa)
        assert _raised(extended_kappa_table, lat, bad) == _first_pointwise_failure(lat, bad)


def _raised(fn, *args):
    """The InternalInvariant message fn raises on args, or None."""
    try:
        fn(*args)
    except InternalInvariant as exc:
        return str(exc)
    return None


def _clo_corruptions(lat, lab):
    """Labelings with one kappa_dual value replaced or dropped, or with one
    gamma arrow relabeled by another join-irreducible and kappa_dual read
    off the relabeled arrows, as full_labeling reads it."""
    for m, j in lab.kappa_dual.items():
        yield lab._replace(kappa_dual={k: v for k, v in lab.kappa_dual.items() if k != m})
        for label in bits_of(lab.jirr):
            if label != j:
                yield lab._replace(kappa_dual={**lab.kappa_dual, m: label})
    for arrow in lat.covers:
        for label in bits_of(lab.jirr):
            if label != lab.gamma[arrow]:
                gamma = {**lab.gamma, arrow: label}
                kappa_dual = {m: gamma[lat.cover_ups[m][0], m] for m in lab.kappa_dual}
                yield lab._replace(gamma=gamma, kappa_dual=kappa_dual)


def _clo_expectations(lat, lab):
    """(labeling, clo message, kappa message) for each of _clo_corruptions.

    The clo message names the first x in id order that is not the join of
    its core labels, each core computed with the single-element x_down;
    the kappa message is the first that the single-element extended_kappa
    raises in id order.  Either is None where nothing fails.
    """
    for bad in _clo_corruptions(lat, lab):
        belowj, kge = label_tables(lat, bad, {j: 1 << j for j in bits_of(bad.jirr)})
        first = next(
            (x for x in range(lat.n) if lat.join(bits_of(belowj[x] & kge[x_down(lat, x)])) != x),
            None,
        )
        by_clo = None if first is None else (
            f"{lat.names[first]!r} is not the join of its core label set"
        )
        yield bad, by_clo, _first_pointwise_failure(lat, bad)


CLO_CORPUS = ["fig1", "ex424", "boolean(3)", "weak_sym(3)"]


@pytest.mark.parametrize("name", CLO_CORPUS)
def test_clo_table_fails_where_pointwise_fails_first(name):
    # compare_orders raises what the kappa table raises, else the clo
    # message; every lattice has some clo failure
    lat, lab = next((lat, lab) for n, lat, lab in labeled_corpus() if n == name)
    failed = 0
    for bad, by_clo, by_kappa in _clo_expectations(lat, lab):
        failed += by_clo is not None
        assert _raised(compare_orders, lat, bad) == (by_kappa or by_clo)
    assert failed


def test_clo_check_computes_no_join_on_failure(monkeypatch):
    # the clo check must name the first x in id order that is not the join
    # of its core labels, off its two scans with no join, meet or x_down;
    # compare_orders is held to that only where the kappa table passes,
    # since its failure path reruns extended_kappa by design
    cases = [
        (lat, case)
        for n, lat, lab in labeled_corpus() if n in CLO_CORPUS
        for case in _clo_expectations(lat, lab)
    ]

    def refuse(*args):
        raise AssertionError("the clo check computed a join or meet")

    for owner, name in ((kappalat.orders, "x_down"), (Lattice, "join"), (Lattice, "meet")):
        monkeypatch.setattr(owner, name, refuse)
    failed = 0
    for lat, (bad, by_clo, by_kappa) in cases:
        assert _raised(order_poset, lat, bad, "clo") == by_clo
        if by_kappa is None:
            failed += by_clo is not None
            assert _raised(compare_orders, lat, bad) == by_clo
    assert failed


def test_table_builders_call_no_single_element_path(monkeypatch):
    # on valid labelings the per-element checks are a failure path only
    corpus = labeled_corpus()

    def refuse(*args):
        raise AssertionError("a table builder called a single-element function")

    for owner, name in (
        (kappalat.orders, "_check_joinands"),
        (kappalat.orders, "x_down"),
        (Lattice, "join"),
        (Lattice, "meet"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    for name, lat, lab in corpus:
        extended_kappa_table(lat, lab)
        _core_labels(lat, lab)
