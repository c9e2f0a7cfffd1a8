"""Random lattices and bounded posets against the brute-force oracles.

The fixed corpus is almost all semidistributive lattices; these inputs
also reach the non-lattice and non-semidistributive branches of the
lattice test, the semidistributivity test and the arrow labels.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_arrow_labels,
    brute_covers,
    brute_first_missing_meet,
    brute_sd_violations,
    brute_semidistributive,
    order_closure,
)
from kappalat import _backend, full_labeling, join_label, meet_label, semidistributive_witness
from kappalat.errors import NotALattice, NotSemidistributive
from strategies import bounded_posets, build, lattices


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattices(), bounded_posets()))
def test_lattice_test_and_witness_pair(order):
    n, covers = order
    missing = brute_first_missing_meet(n, covers)
    if missing is None:
        assert build(n, covers).names == tuple(str(i) for i in range(n))
    else:
        a, b = missing
        with pytest.raises(NotALattice, match=f"^elements '{a}' and '{b}' have no"):
            build(n, covers)


@settings(deadline=None)
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


@settings(deadline=None)
@given(lattices())
def test_arrow_labels(order):
    lat = build(*order)
    expected = brute_arrow_labels(lat)
    for arrow, (j, m) in expected.items():
        if j is None:
            with pytest.raises(NotSemidistributive):
                join_label(lat, arrow)
        else:
            assert join_label(lat, arrow) == j
        if m is None:
            with pytest.raises(NotSemidistributive):
                meet_label(lat, arrow)
        else:
            assert meet_label(lat, arrow) == m
    if all(j is not None and m is not None for j, m in expected.values()):
        lab = full_labeling(lat)
        assert lab.gamma == {arrow: j for arrow, (j, _) in expected.items()}
        assert lab.mu == {arrow: m for arrow, (_, m) in expected.items()}
    else:
        with pytest.raises(NotSemidistributive):
            full_labeling(lat)


@settings(deadline=None)
@given(lattices())
def test_transitive_reduction_of_lattices(order):
    lat = build(*order)
    assert _backend.transitive_reduction(lat.n, lat.up) == sorted(brute_covers(lat))


@settings(deadline=None)
@given(bounded_posets())
def test_transitive_reduction_of_posets(order):
    n, covers = order
    leq = order_closure(n, covers)
    up = [sum(1 << y for y in range(n) if leq[x][y]) for x in range(n)]
    assert _backend.transitive_reduction(n, up) == sorted(covers)
