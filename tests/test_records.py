"""Value semantics of Lattice and the result records.

Lattice, SdViolation, ArrowLabeling, SetFamilyPoset and OrderRelation
are named tuples: each unpacks into its fields in a fixed order, compares
equal to the plain tuple of them, refuses every assignment, deletion and
new attribute, and pickles and copies to an equal record.  Two lattices
built from the same names and covers are equal with equal hashes, and
names alone tell lattices apart.  The result records' reprs name every
field.
"""

import copy
import pickle

import pytest

from helpers import corpus, m3
from kappalat import (
    build_lattice,
    derived_poset,
    emit_lattice,
    full_labeling,
    gen_a2,
    gen_chain,
    gen_fig1,
    order_poset,
    parse_lattice,
    semidistributive_witness,
)


def records():
    """(name, record, its fields in order) for one record of each value type."""
    lat = gen_a2()
    lab = full_labeling(lat)
    return [
        ("SdViolation", semidistributive_witness(m3()), ("law", "a", "x", "y")),
        ("ArrowLabeling", lab, ("gamma", "mu", "kappa", "kappa_dual", "jirr", "mirr")),
        ("SetFamilyPoset", derived_poset(lat, lab, "wide"), ("kind", "members", "hasse", "witnesses")),
        ("OrderRelation", order_poset(lat, lab, "clo"), ("kind", "up", "hasse")),
        ("Lattice", gen_a2(), ("names", "up", "down", "covers", "cover_ups", "cover_downs")),
    ]


RECORD_IDS = [name for name, _, _ in records()]

LATTICE_FIELDS = ("names", "up", "down", "covers", "cover_ups", "cover_downs")


class TestLatticeValue:
    @pytest.mark.parametrize(("name", "lat"), corpus(), ids=[name for name, _ in corpus()])
    def test_round_trip_is_equal_with_equal_hash(self, name, lat):
        back = parse_lattice(emit_lattice(lat, {"family": name}))
        assert back == lat
        assert hash(back) == hash(lat)

    def test_names_alone_make_lattices_unequal(self):
        a = build_lattice(["0", "a", "1"], [("a", "0"), ("1", "a")])
        b = build_lattice(["0", "b", "1"], [("b", "0"), ("1", "b")])
        assert (a.up, a.down, a.covers) == (b.up, b.down, b.covers)
        assert a != b

    def test_other_types_are_unequal(self):
        lat = gen_fig1()
        assert lat != (lat.names, lat.up, lat.down, lat.covers)
        assert lat != "fig1"

    @pytest.mark.parametrize("field", LATTICE_FIELDS)
    def test_fields_refuse_assignment_and_deletion(self, field):
        lat = gen_fig1()
        before = getattr(lat, field)
        with pytest.raises(AttributeError):
            setattr(lat, field, before)
        with pytest.raises(AttributeError):
            delattr(lat, field)
        assert getattr(lat, field) is before

    def test_no_new_attribute(self):
        with pytest.raises(AttributeError):
            gen_fig1().extra = 1

    def test_pickle_and_copy_give_an_equal_lattice(self):
        lat = gen_fig1()
        for twin in (pickle.loads(pickle.dumps(lat)), copy.copy(lat), copy.deepcopy(lat)):
            assert twin == lat
            assert twin.id_of("4*") == lat.id_of("4*")
            assert twin.cover_ups == lat.cover_ups


class TestResultRecords:
    @pytest.mark.parametrize("index", range(len(RECORD_IDS)), ids=RECORD_IDS)
    def test_fields_refuse_assignment_and_deletion(self, index):
        _, record, fields = records()[index]
        assert record._fields == fields
        assert record == tuple(getattr(record, field) for field in fields)
        for field in fields:
            before = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, before)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is before
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_sd_violation_repr(self):
        assert repr(semidistributive_witness(m3())) == "SdViolation(law='join', a=1, x=2, y=3)"

    def test_set_family_poset_repr(self):
        lat = gen_chain(3)
        assert repr(derived_poset(lat, full_labeling(lat), "wide")) == (
            "SetFamilyPoset(kind='wide', members=(0, 2, 4), hasse=((1, 0), (2, 0)), "
            "witnesses=((0, 0), (0, 1), (1, 2)))"
        )

    def test_order_relation_repr(self):
        lat = gen_a2()
        assert repr(order_poset(lat, full_labeling(lat), "clo")) == (
            "OrderRelation(kind='clo', up=(31, 18, 20, 24, 16), "
            "hasse=((1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (4, 3)))"
        )

    def test_records_pickle_to_equal_records(self):
        for _, record, _ in records():
            for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
                assert twin == record
                assert type(twin) is type(record)
        lat = gen_fig1()
        for twin in (pickle.loads(pickle.dumps(lat)), copy.copy(lat), copy.deepcopy(lat)):
            assert twin.id_of("4*") == lat.id_of("4*")
