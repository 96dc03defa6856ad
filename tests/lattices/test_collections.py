"""Unit tests for set, map, counter and register lattices."""

import pytest

from repro.cluster import payload_digest
from repro.lattices import (
    GCounter,
    LWWRegister,
    MapLattice,
    MaxInt,
    SetUnion,
    TwoPhaseSet,
)
from repro.lattices.base import sorted_mapping_repr


class TestSetUnion:
    def test_merge_is_union(self):
        merged = SetUnion({1, 2}).merge(SetUnion({2, 3}))
        assert merged.elements == frozenset({1, 2, 3})

    def test_add_is_monotone(self):
        base = SetUnion({1})
        bigger = base.add(2)
        assert base.leq(bigger)
        assert 2 in bigger
        assert 2 not in base

    def test_len_and_iter(self):
        items = SetUnion({"a", "b"})
        assert len(items) == 2
        assert sorted(items) == ["a", "b"]

    def test_bottom_is_empty(self):
        assert len(SetUnion.bottom()) == 0

    def test_repr_sorts_elements_by_their_repr(self):
        assert repr(SetUnion([10, 2])) == "SetUnion(['10', '2'])"
        assert repr(SetUnion({1}).add(9)) == repr(SetUnion({9}).add(1))


class TestTwoPhaseSet:
    def test_remove_tombstones_forever(self):
        s = TwoPhaseSet().add("x").remove("x")
        assert "x" not in s
        # Re-adding after removal has no visible effect.
        assert "x" not in s.add("x")

    def test_merge_unions_both_components(self):
        left = TwoPhaseSet().add("a")
        right = TwoPhaseSet().add("b").remove("a")
        merged = left.merge(right)
        assert "b" in merged
        assert "a" not in merged

    def test_remove_before_add(self):
        s = TwoPhaseSet().remove("ghost")
        assert "ghost" not in s.add("ghost")

    def test_live_membership(self):
        s = TwoPhaseSet().add(1).add(2).remove(1)
        assert s.live == {2}

    def test_repr_sorts_both_components(self):
        tp = TwoPhaseSet({3, 1}, {2})
        assert repr(tp) == "TwoPhaseSet(added=['1', '3'], removed=['2'])"
        assert repr(tp) == repr(TwoPhaseSet().add(3).add(1).merge(TwoPhaseSet((), {2})))


class TestMapLattice:
    def test_pointwise_merge(self):
        left = MapLattice({"a": MaxInt(1), "b": MaxInt(5)})
        right = MapLattice({"b": MaxInt(3), "c": MaxInt(7)})
        merged = left.merge(right)
        assert merged["a"] == MaxInt(1)
        assert merged["b"] == MaxInt(5)
        assert merged["c"] == MaxInt(7)

    def test_insert_merges_existing_key(self):
        m = MapLattice({"k": SetUnion({1})}).insert("k", SetUnion({2}))
        assert m["k"].elements == frozenset({1, 2})

    def test_rejects_non_lattice_values(self):
        with pytest.raises(TypeError):
            MapLattice({"k": 42})
        with pytest.raises(TypeError):
            MapLattice().insert("k", 42)

    def test_equal_maps_hash_equal(self):
        a = MapLattice({"x": MaxInt(1), "y": SetUnion({1})})
        b = MapLattice({"y": SetUnion({1}), "x": MaxInt(1)})
        assert a == b and hash(a) == hash(b)
        assert hash(a.merge(MapLattice({"z": MaxInt(2)}))) != hash(a)

    def test_contains_and_get(self):
        m = MapLattice({"k": MaxInt(1)})
        assert "k" in m
        assert m.get("missing") is None

    def test_repr_sorts_keys_whatever_the_insertion_order(self):
        a = MapLattice({"y": MaxInt(2), "x": MaxInt(1)})
        b = MapLattice({"x": MaxInt(1)}).insert("y", MaxInt(2))
        assert repr(a) == repr(b) == "MapLattice({'x': MaxInt(1), 'y': MaxInt(2)})"

    def test_sorted_mapping_repr_orders_entries_by_key_repr(self):
        assert sorted_mapping_repr({}) == "{}"
        assert sorted_mapping_repr({2: "b", "a": 1, 10: None}) == "{'a': 1, 10: None, 2: 'b'}"


class TestCounters:
    def test_gcounter_value_sums_replicas(self):
        counter = GCounter().increment("r1", 3).increment("r2", 4)
        assert counter.value == 7

    def test_gcounter_merge_takes_pointwise_max(self):
        a = GCounter().increment("r1", 3)
        b = GCounter().increment("r1", 5)
        assert a.merge(b).value == 5

    def test_gcounter_rejects_negative(self):
        with pytest.raises(ValueError):
            GCounter().increment("r1", -1)
        with pytest.raises(ValueError):
            GCounter({"r1": -2})

    def test_gcounter_zero_entries_are_normalised_away(self):
        assert GCounter({"r1": 0}).counts == {}
        assert GCounter().increment("r1", 0) == GCounter()
        assert repr(GCounter({"c": 2, "a": 0, "b": 1})) == "GCounter({'b': 1, 'c': 2})"

    def test_gcounter_merge_orders_print_and_digest_alike(self):
        """Counters once printed their slots in insertion order, so equal
        counters merged in opposite orders digested apart."""
        ab = GCounter({"a": 1}).merge(GCounter({"b": 1}))
        ba = GCounter({"b": 1}).merge(GCounter({"a": 1}))
        assert ab == ba
        assert repr(ab) == repr(ba) == "GCounter({'a': 1, 'b': 1})"
        assert payload_digest(ab) == payload_digest(ba)


class TestLWWRegister:
    def test_latest_timestamp_wins(self):
        reg = LWWRegister().write(1.0, "old").write(2.0, "new")
        assert reg.value == "new"

    def test_merge_is_commutative_on_distinct_timestamps(self):
        a = LWWRegister(1.0, "a", "n1")
        b = LWWRegister(2.0, "b", "n2")
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).value == "b"

    def test_tiebreak_resolves_equal_timestamps(self):
        a = LWWRegister(1.0, "a", "node-a")
        b = LWWRegister(1.0, "b", "node-b")
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).value == "b"  # larger tiebreak wins

    def test_repr_prints_a_set_tiebreak_only(self):
        assert repr(LWWRegister(5, "x")) == "LWWRegister(t=5, value='x')"
        assert repr(LWWRegister(5, "x", "a")) == "LWWRegister(t=5, value='x', tiebreak='a')"

    def test_tiebreak_separates_digests(self):
        """Registers once printed no tiebreak, so two writes that differ only
        in it were unequal yet digested alike."""
        a = LWWRegister(5, "x", "a")
        b = LWWRegister(5, "x", "b")
        assert a != b
        assert payload_digest(a) != payload_digest(b)

    def test_bottom_loses_to_any_write(self):
        assert LWWRegister.bottom().merge(LWWRegister(0.0, "x")).value == "x"

    def test_duplicate_tags_are_ordered_by_the_value(self):
        """Two writes colliding on (timestamp, tiebreak) — the only case
        that formats ``repr(value)`` — still merge commutatively."""
        a = LWWRegister(1.0, "apple", "n1")
        b = LWWRegister(1.0, "banana", "n1")
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).value == "banana"  # larger repr wins
        assert a.leq(b) and not b.leq(a)
        assert a.leq(a.merge(a)) and a.merge(a).leq(a)  # shared value object
