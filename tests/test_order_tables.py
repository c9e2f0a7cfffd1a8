"""The table-based order functions against their single-element oracles.

extended_kappa_table, order_poset, sufficiency_failures and
intervals.label_tables read everything off per-lattice tables; here they
are checked against cjr, extended_kappa, kappa_leq, clo_leq and jlabel,
which compute one element or one interval from the definitions, on the
labeled corpus and on random semidistributive lattices.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

import kappalat
from helpers import (
    jirr_sufficiency_failures,
    labeled_corpus,
    small_labeled_corpus,
)
from kappalat import (
    bits_of,
    cjr,
    clo_leq,
    compare_orders,
    emit_lattice,
    extended_kappa,
    extended_kappa_table,
    full_labeling,
    gen_fig1,
    gen_weak_sym,
    jlabel,
    kappa_leq,
    mask_of,
    order_poset,
    semidistributive_witness,
    sufficiency_failures,
)
from kappalat.cli import cli_main
from kappalat.errors import InternalInvariant
from kappalat.intervals import label_tables
from kappalat.orders import _check_joinands
from strategies import build, lattices


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
    assert sufficiency_failures(lat, lab) == failures
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


def _sd_lattice(order):
    lat = build(*order)
    assume(semidistributive_witness(lat) is None)
    return lat, full_labeling(lat)


class TestOnCorpus:
    def test_orders_match_kappa_leq_and_clo_leq(self):
        for name, lat, lab in small_labeled_corpus(40):
            _orders_match_pointwise(lat, lab)

    def test_tables_match_single_element_functions(self):
        for name, lat, lab in labeled_corpus():
            _tables_match_pointwise(lat, lab)


@settings(deadline=None)
@given(lattices())
def test_orders_match_pointwise_on_random_lattices(order):
    _orders_match_pointwise(*_sd_lattice(order))


@settings(deadline=None)
@given(lattices())
def test_tables_match_pointwise_on_random_lattices(order):
    _tables_match_pointwise(*_sd_lattice(order))


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


def test_clo_order_checks_each_element_joins_its_core_labels():
    # without kappa_dual every kge mask, hence every core label set, is
    # empty, and the first element above the bottom is not their join
    lat = gen_fig1()
    bad = dataclasses.replace(full_labeling(lat), kappa_dual={})
    with pytest.raises(InternalInvariant, match=r"^'1' is not the join of its core label set$"):
        order_poset(lat, bad, "clo")


@pytest.mark.parametrize("name", ["fig1", "ex424", "boolean(3)", "weak_sym(3)"])
def test_table_fails_where_pointwise_fails_first(name):
    # relabel one arrow at a time; the table must raise the message of the
    # first x in id order whose single-element extended_kappa raises
    lat, lab = next((lat, lab) for n, lat, lab in labeled_corpus() if n == name)
    for arrow in lat.covers:
        for label in (lat.bottom, *bits_of(lab.jirr)):
            if label == lab.gamma[arrow]:
                continue
            gamma = dict(lab.gamma)
            gamma[arrow] = label
            bad = dataclasses.replace(lab, gamma=gamma)
            messages = []
            for x in range(lat.n):
                try:
                    extended_kappa(lat, bad, x)
                except InternalInvariant as exc:
                    messages.append(str(exc))
            assert messages, (arrow, label)
            with pytest.raises(InternalInvariant) as info:
                extended_kappa_table(lat, bad)
            assert str(info.value) == messages[0]


def test_extended_kappa_table_checks_survive_python_O():
    # fig1's last arrow 0* -> 3* carries label 3, and 3* is the extended
    # kappa image of 3; relabeling that arrow with the bottom changes the
    # up-labels of 3*, so the image check of 3 (the first x it affects in
    # id order) must fail even with asserts stripped
    script = textwrap.dedent(
        """
        from kappalat import extended_kappa_table, full_labeling, gen_fig1
        from kappalat.errors import InternalInvariant

        assert False, "asserts run, so -O is not in effect"
        lat = gen_fig1()
        lab = full_labeling(lat)
        lab.gamma[lat.id_of("0*"), lat.id_of("3*")] = lat.bottom
        try:
            extended_kappa_table(lat, lab)
        except InternalInvariant as exc:
            print("InternalInvariant:", exc)
        """
    )
    src = str(Path(kappalat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "InternalInvariant: up-arrow labels of extended_kappa('3') differ from its joinands\n"
    )
