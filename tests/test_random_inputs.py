"""Random lattices and bounded posets against the brute-force oracles.

The fixed corpus is all semidistributive lattices; random inputs also
reach the non-lattice and non-semidistributive branches of the lattice
test, the semidistributivity test and the arrow labels.  The tests
marked @corpus_examples run each corpus lattice first, as an explicit
example, so one test checks its property on both.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_arrow_labels,
    brute_covers,
    brute_family,
    brute_first_missing_meet,
    brute_order_defect,
    brute_sd_violations,
    brute_semidistributive,
    corpus_examples,
    first_sd_witness,
    m3,
    order_closure,
    order_masks,
    per_cover_labels,
    sd_lattice,
    sweep_first_missing_meet,
)
from kappalat import (
    _backend,
    bits_of,
    core_label,
    derived_poset,
    emit_lattice,
    full_labeling,
    is_ice_interval,
    is_wide_interval,
    join_irreducibles,
    join_label,
    meet_irreducibles,
    meet_label,
    semidistributive_witness,
    x_down,
)
from kappalat.cli import cli_main
from kappalat.errors import LatticeError, NotALattice, NotSemidistributive
from kappalat.intervals import interval_tops
from strategies import bounded_posets, build, large_orders, lattices, with_implied_cover


@settings(max_examples=300)
@given(st.one_of(lattices(), bounded_posets()))
def test_lattice_test_and_witness_pair(order):
    n, covers = order
    missing = brute_first_missing_meet(n, covers)
    assert sweep_first_missing_meet(n, *order_masks(n, covers)) == missing
    if missing is None:
        assert build(n, covers).names == tuple(str(i) for i in range(n))
    else:
        a, b = missing
        with pytest.raises(NotALattice, match=f"^elements '{a}' and '{b}' have no"):
            build(n, covers)


ORDERS = st.one_of(lattices(), bounded_posets())


@settings(max_examples=300)
@given(st.one_of(ORDERS, with_implied_cover(ORDERS)))
def test_lower_cover_pass_decides_implied_covers_and_lattices(order):
    # the one pass over pairs of lower covers passes iff the order is a
    # lattice with no implied cover; when it fails, build_lattice still
    # raises the first defect in the order implied cover, bounds, meet
    n, covers = order
    defect = brute_order_defect(n, covers)
    _, down = order_masks(n, covers)
    cover_downs = [sorted(l for u, l in covers if u == x) for x in range(n)]
    assert (_backend.first_missing_meet(down, cover_downs) is None) == (defect is None)
    if defect is None:
        assert build(n, covers).n == n
    else:
        error, message = defect
        with pytest.raises(LatticeError) as info:
            build(n, covers)
        assert (type(info.value), str(info.value)) == (error, message)


# the first order passes a lower-cover test that checks only the pairs
# with the first lower cover, the second one that checks only consecutive
# pairs: in each, only a pair such a test skips shows the missing meet
@pytest.mark.parametrize(
    "covers, message",
    [
        (
            [(1, 0), (2, 0), (3, 0), (4, 2), (4, 3), (5, 2), (5, 3), (6, 1), (6, 4), (6, 5)],
            "elements '4' and '5' have no greatest lower bound",
        ),
        (
            [(1, 0), (2, 0), (3, 1), (3, 2), (4, 1), (5, 1), (5, 2), (6, 3), (6, 4), (6, 5)],
            "elements '3' and '5' have no greatest lower bound",
        ),
    ],
    ids=["first-cover-pairs", "consecutive-pairs"],
)
def test_every_pair_of_lower_covers_is_tested(covers, message):
    with pytest.raises(NotALattice, match=f"^{message}$"):
        build(7, covers)


@settings(max_examples=150)
@given(large_orders())
def test_lattice_test_on_large_orders_against_pair_sweep(order):
    n, covers = order
    missing = sweep_first_missing_meet(n, *order_masks(n, covers))
    if missing is None:
        assert build(n, covers).n == n
    else:
        a, b = missing
        with pytest.raises(NotALattice, match=f"^elements '{a}' and '{b}' have no"):
            build(n, covers)


@given(lattices())
@corpus_examples()
def test_irreducibles_match_star_definition(order):
    lat = build(*order)
    assert join_irreducibles(lat) == sum(1 << x for x in range(lat.n) if lat.star_down(x) != x)
    assert meet_irreducibles(lat) == sum(1 << x for x in range(lat.n) if lat.star_up(x) != x)


@given(lattices())
def test_sd_verdict_and_witness_triple(order):
    lat = build(*order)
    violations = brute_sd_violations(lat)
    witness = semidistributive_witness(lat)
    if witness is None:
        assert not violations
    else:
        assert (witness.law, witness.a, witness.x, witness.y) in violations
    if lat.n <= 8:
        assert brute_semidistributive(lat) == (not violations)


def dual(n: int, covers: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """The opposite order, with ids reversed so they stay a linear extension."""
    return n, [(n - 1 - lower, n - 1 - upper) for upper, lower in covers]


# walking the fibers of a = 2 by value instead of by first member reports
# another triple here than the first one, ("join", 2, 1, 8)
FIBER_ORDER_CASE = (
    12,
    [(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (5, 3), (6, 1), (6, 4), (7, 3),
     (7, 4), (8, 7), (9, 2), (9, 7), (10, 5), (10, 6), (10, 8), (11, 9), (11, 10)],
)


@given(lattices())
@example(FIBER_ORDER_CASE)
def test_sd_witness_is_the_first_triple(order):
    # the dual swaps the laws, so both halves of the sweep get non-SD draws
    for lat in (build(*order), build(*dual(*order))):
        witness = semidistributive_witness(lat)
        found = None if witness is None else (witness.law, witness.a, witness.x, witness.y)
        assert found == first_sd_witness(lat)


@given(lattices())
@corpus_examples()
def test_interval_tops_match_the_oracles(order):
    lat = build(*order)
    for kind, oracle in (("wide", is_wide_interval), ("ice", is_ice_interval)):
        tops = interval_tops(lat, kind)
        for a, b in lat.intervals():
            assert (tops[a] >> b) & 1 == oracle(lat, (a, b))
        assert all(top & ~up == 0 for top, up in zip(tops, lat.up))
    assert interval_tops(lat, "all") is lat.up


@given(lattices())
@corpus_examples(limit=40)
def test_families_match_the_brute_oracle(order):
    # chain(1) has no join-irreducibles: the compressed masks have width 0
    lat, lab = sd_lattice(order)
    for kind in ("all", "wide", "ice"):
        assert derived_poset(lat, lab, kind) == brute_family(lat, lab, kind)


@given(lattices())
@corpus_examples()
def test_core_label_sets_are_wide_with_the_core_interval_as_witness(order):
    # the paper pairs x with the wide interval [x_down, x]
    lat, lab = sd_lattice(order)
    wide = derived_poset(lat, lab, "wide")
    witness = dict(zip(wide.members, wide.witnesses))
    for x in range(lat.n):
        assert witness[core_label(lat, lab, x)] == (x_down(lat, x), x)


@given(lattices())
def test_arrow_labels(order):
    lat = build(*order)
    expected = brute_arrow_labels(lat)
    for arrow, (j, m) in expected.items():
        upper, lower = arrow
        if j is None:
            with pytest.raises(NotSemidistributive):
                join_label(lat, arrow)
        else:
            assert join_label(lat, arrow) == j
            # join_label's proof: one lower cover, met by lower
            assert len(lat.cover_downs[j]) == 1
            assert lat.meet((lower, j)) == lat.star_down(j)
        if m is None:
            with pytest.raises(NotSemidistributive):
                meet_label(lat, arrow)
        else:
            assert meet_label(lat, arrow) == m
            assert len(lat.cover_ups[m]) == 1
            assert lat.join((upper, m)) == lat.star_up(m)
    if all(j is not None and m is not None for j, m in expected.values()):
        lab = full_labeling(lat)
        assert lab.gamma == {arrow: j for arrow, (j, _) in expected.items()}
        assert lab.mu == {arrow: m for arrow, (_, m) in expected.items()}
        # full_labeling's proof of the two kappa identities
        for j, m in lab.kappa.items():
            assert lat.join((j, m)) == lat.star_up(m)
            assert lat.meet((j, m)) == lat.star_down(j)
        # and of its claims 2 to 4: kappa_dual(m) = gamma(m^*, m) is kappa
        # inverted, keyed by ascending m, and mu = kappa o gamma
        uppers = {}
        for upper, lower in expected:
            uppers.setdefault(lower, []).append(upper)
        assert lab.kappa_dual == {
            m: expected[(ups[0], m)][0] for m, ups in uppers.items() if len(ups) == 1
        }
        assert lab.kappa_dual == {m: j for j, m in lab.kappa.items()}
        assert list(lab.kappa_dual) == sorted(lab.kappa_dual)
        for j, m in expected.values():
            assert m == lab.kappa[j]
    else:
        with pytest.raises(NotSemidistributive) as info:
            full_labeling(lat)
        assert str(info.value) == semidistributive_witness(lat).describe(lat)


@given(lattices())
@corpus_examples()
@example((m3().n, list(m3().covers)))
def test_one_pass_arrow_labels_match_the_per_cover_kernels(order):
    # the dual swaps join and meet labels, so a missing label of either kind is reached
    for lat in (build(*order), build(*dual(*order))):
        gamma, mu = per_cover_labels(lat)
        labels = _backend.arrow_labels(lat.up, lat.down, lat.covers)
        if -1 in gamma or -1 in mu:
            assert labels is None
        else:
            assert labels == (gamma, mu)


def check_oracle(lat) -> tuple[int, str]:
    """Exit code and stdout of check: semidistributive_witness, then full_labeling."""
    names = lat.names
    lines = [
        f"lattice: {lat.n} elements, {len(lat.covers)} covers",
        f"bottom: {names[lat.bottom]}   top: {names[lat.top]}",
    ]
    witness = semidistributive_witness(lat)
    if witness is not None:
        return 3, "\n".join([*lines, f"semidistributive: no ({witness.describe(lat)})", ""])
    lab = full_labeling(lat)
    jirr, mirr = list(bits_of(lab.jirr)), list(bits_of(lab.mirr))
    lines += [
        "semidistributive: yes",
        f"jirr ({len(jirr)}): " + ", ".join(names[j] for j in jirr),
        f"mirr ({len(mirr)}): " + ", ".join(names[m] for m in mirr),
        "kappa:",
        *(f"  {names[j]} -> {names[lab.kappa[j]]}" for j in jirr),
    ]
    return 0, "\n".join([*lines, ""])


@given(lattices())
def test_check_matches_the_two_step_oracle(order):
    for lat in (build(*order), build(*dual(*order))):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lattice.json"
            path.write_text(emit_lattice(lat), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["check", str(path)])
        assert (code, out.getvalue()) == check_oracle(lat)


@given(lattices())
def test_transitive_reduction_of_lattices(order):
    lat = build(*order)
    assert _backend.transitive_reduction(lat.up) == sorted(brute_covers(lat))


@given(bounded_posets())
def test_transitive_reduction_of_posets(order):
    n, covers = order
    leq = order_closure(n, covers)
    up = [sum(1 << y for y in range(n) if leq[x][y]) for x in range(n)]
    assert _backend.transitive_reduction(up) == sorted(covers)
