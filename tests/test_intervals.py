"""Interval label sets, the wide/ICE classification, and derived posets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_family,
    jlabel_scan,
    labeled_corpus,
    small_labeled_corpus,
)
from kappalat import (
    bits_of,
    derived_poset,
    down_jlabel,
    full_labeling,
    gen_a2,
    gen_chain,
    gen_fig1,
    gen_weak_sym,
    is_ice_interval,
    is_wide_interval,
    jlabel,
    mask_of,
)
from kappalat._backend import interval_images, transitive_reduction
from kappalat.errors import InvalidInterval
from kappalat.intervals import KINDS, interval_tops, supersets


class TestJlabel:
    def test_fig1_example(self):
        lat = gen_fig1()
        lab = full_labeling(lat)
        iv = (lat.id_of("3"), lat.id_of("2*"))
        expected = mask_of([lat.id_of("1"), lat.id_of("4")])
        assert jlabel(lat, lab, iv) == expected
        assert jlabel_scan(lat, lab, iv) == expected

    def test_a2_examples(self):
        lat = gen_a2()
        lab = full_labeling(lat)
        assert jlabel(lat, lab, (lat.id_of("z"), lat.id_of("x"))) == mask_of(
            [lat.id_of("y"), lat.id_of("w")]
        )
        assert jlabel_scan(lat, lab, (lat.bottom, lat.id_of("y"))) == mask_of(
            [lat.id_of("y"), lat.id_of("z")]
        )

    def test_degenerate_intervals(self):
        for _, lat, lab in labeled_corpus():
            for x in range(lat.n):
                assert jlabel(lat, lab, (x, x)) == 0
                assert jlabel_scan(lat, lab, (x, x)) == 0
            assert jlabel(lat, lab, (lat.bottom, lat.top)) == lab.jirr

    def test_invalid_interval(self):
        lat = gen_a2()
        lab = full_labeling(lat)
        with pytest.raises(InvalidInterval):
            jlabel(lat, lab, (lat.top, lat.bottom))

    @settings(max_examples=80)
    @given(st.data())
    def test_monotone_in_both_ends(self, data):
        name, lat, lab = data.draw(st.sampled_from(small_labeled_corpus(40)))
        a2 = data.draw(st.integers(0, lat.n - 1))
        b2 = data.draw(st.integers(0, lat.n - 1))
        if not lat.leq(a2, b2):
            a2, b2 = b2, a2
            if not lat.leq(a2, b2):
                return
        # pick a nested inner interval [a1, b1] inside [a2, b2]
        inner = [x for x in bits_of(lat.up[a2] & lat.down[b2])]
        a1 = data.draw(st.sampled_from(inner))
        b1_choices = [x for x in inner if lat.leq(a1, x)]
        b1 = data.draw(st.sampled_from(b1_choices))
        assert jlabel(lat, lab, (a1, b1)) & ~jlabel(lat, lab, (a2, b2)) == 0


class TestWideIce:
    def test_a2_classification(self):
        lat = gen_a2()
        assert not is_wide_interval(lat, (lat.bottom, lat.id_of("y")))
        assert is_ice_interval(lat, (lat.bottom, lat.id_of("y")))
        assert not is_ice_interval(lat, (lat.id_of("z"), lat.id_of("x")))

    def test_singleton_intervals(self):
        for _, lat, _ in labeled_corpus():
            for x in range(lat.n):
                assert is_wide_interval(lat, (x, x))
                assert is_ice_interval(lat, (x, x))

    def test_fig1_example(self):
        lat = gen_fig1()
        assert is_wide_interval(lat, (lat.id_of("3"), lat.id_of("2*")))

    def test_wide_implies_ice(self):
        for _, lat, _ in labeled_corpus():
            for iv in lat.intervals():
                if is_wide_interval(lat, iv):
                    assert is_ice_interval(lat, iv)


class TestDerivedPoset:
    def test_family_nesting(self):
        for _, lat, lab in labeled_corpus():
            fams = {k: set(derived_poset(lat, lab, k).members) for k in ("all", "wide", "ice")}
            assert fams["wide"] <= fams["ice"] <= fams["all"]

    @given(st.sets(st.integers(0, 63)))
    def test_inclusion_by_label_columns(self, family):
        sets = sorted(family, key=lambda s: (s.bit_count(), s))
        up = supersets(sets)
        assert up == [
            sum(1 << k for k, big in enumerate(sets) if small & ~big == 0) for small in sets
        ]
        expected = [
            (k, i)
            for i, small in enumerate(sets)
            for k, big in enumerate(sets)
            if i != k
            and small & ~big == 0
            and not any(
                mid not in (small, big) and small & ~mid == 0 and mid & ~big == 0
                for mid in sets
            )
        ]
        assert transitive_reduction(up) == sorted(expected)

    @given(st.lists(st.integers(0, 63) | st.integers(0, 1 << 70), max_size=40))
    def test_inclusion_in_any_order_with_repeats(self, sets):
        # the parent-row shortcut must not assume sorted, distinct sets
        assert supersets(sets) == [
            sum(1 << k for k, big in enumerate(sets) if small & ~big == 0) for small in sets
        ]

    def test_families_match_the_brute_oracle_on_chain_70(self):
        # the one brute-oracle comparison above the 40-element limit of
        # test_families_match_the_brute_oracle: 69 join-irreducibles, all kinds
        lat = gen_chain(70)
        lab = full_labeling(lat)
        sizes = {"all": 69 * 70 // 2 + 1, "wide": 70, "ice": 70}
        for kind, size in sizes.items():
            fam = derived_poset(lat, lab, kind)
            assert len(fam.members) == size
            assert fam == brute_family(lat, lab, kind)

    def test_weak_sym_6_all(self):
        lat = gen_weak_sym(6)
        lab = full_labeling(lat)
        assert len(derived_poset(lat, lab, "all").members) == 21932

    @pytest.mark.parametrize("kind", KINDS)
    def test_sweep_stops_past_the_cap(self, kind):
        lat = gen_weak_sym(4)
        lab = full_labeling(lat)
        belowj = [down & lab.jirr for down in lat.down]
        kge = [mask_of(j for j, m in lab.kappa.items() if lat.leq(a, m)) for a in range(lat.n)]
        args = (belowj, kge, interval_tops(lat, kind))
        every = list(interval_images(*args, lat.interval_count()).items())
        assert len(every) > 10
        for cap in range(len(every) + 2):
            # the first cap + 1 sets in sweep order, each with its first witness
            assert list(interval_images(*args, cap).items()) == every[: cap + 1]

    def test_bad_kind(self):
        lat = gen_a2()
        lab = full_labeling(lat)
        with pytest.raises(ValueError):
            derived_poset(lat, lab, "nope")


class TestArrowBridge:
    def test_join_label_bridges_interval(self):
        # for x <= kappa(j), x v j covers (x v j) ^ kappa(j) with label j
        for _, lat, lab in small_labeled_corpus(40):
            for j, m in lab.kappa.items():
                for x in bits_of(lat.down[m]):
                    upper = lat.join([x, j])
                    lower = lat.meet([upper, m])
                    assert lower in lat.cover_downs[upper]
                    assert lab.gamma[(upper, lower)] == j

    def test_down_labels_match_cover_scan(self):
        for _, lat, lab in small_labeled_corpus(40):
            for x in range(lat.n):
                assert down_jlabel(lat, lab, x) == mask_of(
                    lab.gamma[(x, y)] for y in lat.cover_downs[x]
                )
