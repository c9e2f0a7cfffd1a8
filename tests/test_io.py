"""Lattice document parsing/serialization and DOT export."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lattice_document, small_labeled_corpus
from kappalat import (
    SetFamilyPoset,
    bits_of,
    build_lattice,
    derived_poset,
    emit_dot,
    emit_lattice,
    full_labeling,
    gen_chain,
    gen_fig1,
    order_poset,
    parse_lattice,
)
from kappalat._bits import pick
from kappalat.errors import DuplicateName, ParseError
from kappalat.intervals import KINDS
from kappalat.io import (
    _joined,
    emit_family_dot,
    emit_family_json,
    emit_relation_dot,
    emit_relation_json,
    family_document,
    parse_document,
    relation_document,
)
from kappalat.orders import ORDER_KINDS

# names with JSON and DOT escapes, format-template characters, control
# characters and non-ASCII text
NAMES = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f/ {},%'), st.characters()),
    max_size=5,
)


def dumps(doc) -> str:
    """The reference layout the text writers must reproduce byte for byte."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def renamed(lattice, names):
    return build_lattice(names, [(names[u], names[l]) for u, l in lattice.covers])


class TestParse:
    def test_two_chain(self):
        lat = parse_lattice('{"elements":["0","1"],"covers":[["1","0"]]}')
        assert lat.n == 2
        assert lat.names[lat.top] == "1"

    def test_build_errors_surface(self):
        with pytest.raises(DuplicateName):
            parse_lattice('{"elements":["a","a"],"covers":[]}')

    def test_malformed_json(self):
        with pytest.raises(ParseError) as info:
            parse_lattice("{not json")
        assert "line" in str(info.value)

    def test_wrong_shapes(self):
        # parse_lattice raises the shape message before building anything
        for text, message in (
            ("[1,2]", "top-level value must be an object"),
            ('{"elements":"a","covers":[]}', '"elements" must be a list of strings'),
            ('{"elements":["a"],"covers":[["a"]]}',
             '"covers" must be a list of [upper, lower] string pairs'),
            ('{"elements":["a"],"covers":[["a",1]]}',
             '"covers" must be a list of [upper, lower] string pairs'),
            ('{"elements":["a"],"covers":[],"extra":1}', "unknown keys: extra"),
            ('{"elements":["a"],"covers":[],"meta":[1]}', '"meta" must be a string-to-string map'),
        ):
            with pytest.raises(ParseError) as info:
                parse_lattice(text)
            assert str(info.value) == message, text

    def test_wrong_shape_messages(self):
        elements = '"elements" must be a list of strings'
        covers = '"covers" must be a list of [upper, lower] string pairs'
        meta = '"meta" must be a string-to-string map'
        surrogate = "names and meta strings must not hold lone surrogates"
        for doc, message in (
            ('{"covers": []}', elements),
            ('{"elements": null, "covers": []}', elements),
            ('{"elements": {"a": "b"}, "covers": []}', elements),
            ('{"elements": ["a", true], "covers": []}', elements),
            ('{"elements": ["a", ["b"]], "covers": []}', elements),
            ('{"elements": ["a"]}', covers),
            ('{"elements": ["a", "b"], "covers": {"a": "b"}}', covers),
            ('{"elements": ["a", "b"], "covers": ["ab"]}', covers),
            ('{"elements": ["a", "b"], "covers": [{"a": "b", "c": "d"}]}', covers),
            ('{"elements": ["a", "b"], "covers": [null]}', covers),
            ('{"elements": ["a", "b"], "covers": [["a", "b", "a"]]}', covers),
            ('{"elements": ["a", "b"], "covers": [["a", "b"], []]}', covers),
            ('{"elements": ["a", "b"], "covers": [["a", ["b"]]]}', covers),
            ('{"elements": ["a", "b"], "covers": [["a", null]]}', covers),
            ('{"elements": ["a"], "covers": [], "meta": {"k": 1}}', meta),
            ('{"elements": ["a\\ud800"], "covers": []}', surrogate),
            ('{"elements": ["a", "\\udc00b"], "covers": []}', surrogate),
            ('{"elements": ["a"], "covers": [], "meta": {"\\ud83d": "v"}}', surrogate),
            ('{"elements": ["a"], "covers": [], "meta": {"k": "\\ude00"}}', surrogate),
            ('{"elements": ["a"], "covers": [], "other": 1}', "unknown keys: other"),
            ("[]", "top-level value must be an object"),
        ):
            with pytest.raises(ParseError) as info:
                parse_document(doc)
            assert str(info.value) == message, doc

    def test_escaped_surrogate_pair_parses(self):
        # a high and a low escape in order are one astral character
        lat, meta = parse_document(
            '{"elements": ["\\ud83d\\ude00"], "covers": [], "meta": {"k": "\\ud83d\\ude00"}}'
        )
        assert lat.names == ("\U0001F600",) and meta == {"k": "\U0001F600"}
        again, again_meta = parse_document(emit_lattice(lat, meta))
        assert again.names == lat.names and again_meta == meta

    def test_meta_round_trip(self):
        lat = gen_chain(3)
        text = emit_lattice(lat, meta={"family": "chain", "n": "3"})
        again, meta = parse_document(text)
        assert meta == {"family": "chain", "n": "3"}
        assert again.names == lat.names


class TestCanonicalForm:
    def test_elements_in_id_order_covers_sorted(self):
        lat = gen_fig1()
        doc_text = emit_lattice(lat)
        doc = json.loads(doc_text)
        assert doc["elements"] == list(lat.names)
        pairs = [(lat.id_of(u), lat.id_of(l)) for u, l in doc["covers"]]
        assert pairs == sorted(pairs)


class TestDot:
    def test_chain_has_one_edge(self):
        dot = emit_dot(gen_chain(2))
        assert dot.count("->") == 1

    def test_fig1_labeled_edges(self):
        lat = gen_fig1()
        lab = full_labeling(lat)
        dot = emit_dot(lat, lab)
        assert dot.count("->") == 18
        tally = Counter()
        for line in dot.splitlines():
            if "label=" in line:
                tally[line.split('label="')[1].split('"')[0]] += 1
        assert tally == {"1": 5, "2": 4, "3": 5, "4": 2, "5": 2}

    def test_deterministic(self):
        lat = gen_fig1()
        lab = full_labeling(lat)
        assert emit_dot(lat, lab) == emit_dot(lat, full_labeling(gen_fig1()))

    def test_name_quoting(self):
        lat = build_lattice(['a"b', "top"], [("top", 'a"b')])
        dot = emit_dot(lat)
        assert '"a\\"b"' in dot

    def test_edge_label_quoting(self):
        lat = build_lattice(["0", 'a"b', "c\\d"], [('a"b', "0"), ("c\\d", 'a"b')])
        dot = emit_dot(lat, full_labeling(lat))
        assert '"a\\"b" -> "0" [label="a\\"b"];' in dot
        assert '"c\\\\d" -> "a\\"b" [label="c\\\\d"];' in dot


class TestJsonWriters:
    @settings(max_examples=60)
    @given(st.data())
    def test_match_json_dumps(self, data):
        _, base, _ = data.draw(st.sampled_from(small_labeled_corpus(20)))
        names = data.draw(st.lists(NAMES, min_size=base.n, max_size=base.n, unique=True))
        lat = renamed(base, names)
        lab = full_labeling(lat)
        meta = data.draw(st.dictionaries(NAMES, NAMES, max_size=3))
        assert emit_lattice(lat, meta) == dumps(lattice_document(lat, meta))
        for kind in KINDS:
            fam = derived_poset(lat, lab, kind)
            assert "".join(emit_family_json(lat, fam)) == dumps(family_document(lat, fam))
        for kind in ORDER_KINDS:
            rel = order_poset(lat, lab, kind)
            assert "".join(emit_relation_json(lat, rel)) == dumps(relation_document(lat, rel))

    def test_empty_members_and_hasse(self):
        lat = gen_fig1()
        fam = SetFamilyPoset(kind="all", members=(), hasse=(), witnesses=())
        text = "".join(emit_family_json(lat, fam))
        assert text == dumps(family_document(lat, fam))
        assert '"members": []' in text and '"hasse": []' in text

    def test_one_element_lattice(self):
        lat = build_lattice(["only"], [])
        lab = full_labeling(lat)
        assert emit_lattice(lat) == dumps(lattice_document(lat))
        assert emit_lattice(lat, {"k": "v"}) == dumps(lattice_document(lat, {"k": "v"}))
        for kind in KINDS:
            fam = derived_poset(lat, lab, kind)
            assert "".join(emit_family_json(lat, fam)) == dumps(family_document(lat, fam))
        for kind in ORDER_KINDS:
            rel = order_poset(lat, lab, kind)
            assert "".join(emit_relation_json(lat, rel)) == dumps(relation_document(lat, rel))


def _old_quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _member_part(name):
    """An element name inside a member name: JSON-quoted if empty or holding , or "."""
    return json.dumps(name, ensure_ascii=False) if name == "" or set(name) & {",", '"'} else name


def _old_family_dot(lat, fam):
    """Reference composition: renders a member's name for every node and edge end."""

    def name(mask):
        return _old_quote("{" + ",".join(_member_part(lat.names[j]) for j in bits_of(mask)) + "}")

    lines = ["digraph labelsets {", "  rankdir=TB;"]
    lines += [f"  {name(m)};" for m in fam.members]
    lines += [f"  {name(fam.members[u])} -> {name(fam.members[l])};" for u, l in fam.hasse]
    return "\n".join(lines + ["}"]) + "\n"


def _old_relation_dot(lat, rel):
    lines = [f"digraph {rel.kind}_order {{", "  rankdir=TB;"]
    lines += [f"  {_old_quote(lat.names[x])};" for x in range(lat.n)]
    lines += [
        f"  {_old_quote(lat.names[u])} -> {_old_quote(lat.names[l])};" for u, l in rel.hasse
    ]
    return "\n".join(lines + ["}"]) + "\n"


def _old_lattice_dot(lat, lab=None):
    """Reference composition: quotes both ends, and the label, of every edge."""
    lines = ["digraph lattice {", "  rankdir=TB;"]
    lines += [f"  {_old_quote(name)};" for name in lat.names]
    for u, l in lat.covers:
        label = "" if lab is None else f" [label={_old_quote(lat.names[lab.gamma[u, l]])}]"
        lines.append(f"  {_old_quote(lat.names[u])} -> {_old_quote(lat.names[l])}{label};")
    return "\n".join(lines + ["}"]) + "\n"


class TestDotWriters:
    @settings(max_examples=40)
    @given(st.data())
    def test_match_per_edge_composition(self, data):
        _, base, _ = data.draw(st.sampled_from(small_labeled_corpus(20)))
        names = data.draw(st.lists(NAMES, min_size=base.n, max_size=base.n, unique=True))
        lat = renamed(base, names)
        lab = full_labeling(lat)
        assert emit_dot(lat) == _old_lattice_dot(lat)
        assert emit_dot(lat, lab) == _old_lattice_dot(lat, lab)
        for kind in KINDS:
            fam = derived_poset(lat, lab, kind)
            assert "".join(emit_family_dot(lat, fam)) == _old_family_dot(lat, fam)
        for kind in ORDER_KINDS:
            rel = order_poset(lat, lab, kind)
            assert "".join(emit_relation_dot(lat, rel)) == _old_relation_dot(lat, rel)

    def test_empty_family(self):
        lat = gen_fig1()
        fam = SetFamilyPoset(kind="wide", members=(), hasse=(), witnesses=())
        assert "".join(emit_family_dot(lat, fam)) == _old_family_dot(lat, fam)

    @settings(max_examples=60)
    @given(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    def test_distinct_members_get_distinct_nodes(self, names):
        lat = build_lattice(names, list(zip(names[1:], names)))
        # one emit per set, since a name may hold the newline that ends a statement
        families = (
            SetFamilyPoset(kind="all", members=(m,), hasse=(), witnesses=()) for m in range(1 << lat.n)
        )
        nodes = {"".join(emit_family_dot(lat, fam)) for fam in families}
        assert len(nodes) == 1 << lat.n


def _with_parents(mask):
    """mask and each of its prefixes: mask less its highest bits, down to 0."""
    return [mask & ((1 << k) - 1) for k in range(mask.bit_length() + 1)]


class TestMemberTexts:
    @settings(max_examples=80)
    @given(st.data())
    def test_joined_matches_pick_join(self, data):
        width = data.draw(st.sampled_from([6, 71]))
        items = data.draw(st.lists(st.text(max_size=2), min_size=width, max_size=width))
        sep = data.draw(st.sampled_from([",", ",\n      ", ""]))
        drawn = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))
        # some masks with every parent, some without; repeats and 0 anywhere
        pool = [p for m in drawn for p in _with_parents(m)] + drawn
        masks = data.draw(st.permutations(pool))
        assert list(_joined(items, sep, masks)) == [sep.join(pick(items, m)) for m in masks]

    @settings(max_examples=40)
    @given(st.data())
    def test_writers_on_shuffled_members(self, data):
        _, base, _ = data.draw(st.sampled_from(small_labeled_corpus(20)))
        names = data.draw(st.lists(NAMES, min_size=base.n, max_size=base.n, unique=True))
        lat = renamed(base, names)
        fam = derived_poset(lat, full_labeling(lat), data.draw(st.sampled_from(KINDS)))
        repeats = fam.members[: data.draw(st.integers(0, 3))]
        members = data.draw(st.permutations(fam.members + repeats))
        index = st.integers(0, len(members) - 1)
        element = st.integers(0, lat.n - 1)
        hand_built = SetFamilyPoset(
            kind=fam.kind,
            members=tuple(members),
            hasse=tuple(data.draw(st.lists(st.tuples(index, index), max_size=8))),
            witnesses=tuple(data.draw(st.lists(st.tuples(element, element), max_size=8))),
        )
        assert "".join(emit_family_json(lat, hand_built)) == dumps(family_document(lat, hand_built))
        assert "".join(emit_family_dot(lat, hand_built)) == _old_family_dot(lat, hand_built)

    def test_format_template_names(self):
        # N5: bottom < a < b < top and bottom < c < top
        covers = [("%d", "%s"), ("%%", "%d"), ("{0}", "%%"), ("{}", "%s"), ("{0}", "{}")]
        lat = build_lattice(["%s", "%d", "%%", "{}", "{0}"], covers)
        lab = full_labeling(lat)
        for kind in KINDS:
            fam = derived_poset(lat, lab, kind)
            assert fam.hasse
            assert "".join(emit_family_json(lat, fam)) == dumps(family_document(lat, fam))
            assert "".join(emit_family_dot(lat, fam)) == _old_family_dot(lat, fam)
        for kind in ORDER_KINDS:
            rel = order_poset(lat, lab, kind)
            assert "".join(emit_relation_json(lat, rel)) == dumps(relation_document(lat, rel))
            assert "".join(emit_relation_dot(lat, rel)) == _old_relation_dot(lat, rel)
