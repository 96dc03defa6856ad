"""Sample-based tests that lattice values are immutable.

For every lattice type, three hand-picked points (overlapping, concurrent
and ordered combinations) pin what ``tests/lattices/test_lattice_properties.py``
checks over generated points: ``merge`` and ``join_all`` return new values,
leave every operand and its hash as it was, and still satisfy the
semilattice laws.  The update helpers (``add``, ``insert``, ``increment``,
``advance`` ...) return new values too, which is what lets state, tick
reads, client caches and in-flight messages share one lattice object.
"""

import copy

import pytest

from repro.lattices import (
    BOTTOM,
    BoolAnd,
    BoolOr,
    CausalValue,
    DominatingPair,
    GCounter,
    LWWRegister,
    MapLattice,
    MaxInt,
    MinInt,
    PNCounter,
    PairLattice,
    ProductLattice,
    SetUnion,
    TwoPhaseSet,
    VectorClock,
    join_all,
)

# Three representative points per lattice type, deliberately including
# overlapping / concurrent / ordered combinations.
SAMPLES = {
    "BoolOr": (BoolOr(False), BoolOr(True), BoolOr(False)),
    "BoolAnd": (BoolAnd(True), BoolAnd(False), BoolAnd(True)),
    "MaxInt": (MaxInt(3), MaxInt(7), MaxInt(5)),
    "MinInt": (MinInt(3), MinInt(7), MinInt(5)),
    "SetUnion": (SetUnion({1, 2}), SetUnion({2, 3}), SetUnion({4})),
    "TwoPhaseSet": (
        TwoPhaseSet({1}, {2}),
        TwoPhaseSet({2, 3}, ()),
        TwoPhaseSet((), {1}),
    ),
    "GCounter": (
        GCounter({"a": 2}),
        GCounter({"a": 1, "b": 4}),
        GCounter({"c": 1}),
    ),
    "PNCounter": (
        PNCounter(GCounter({"a": 2}), GCounter({"a": 1})),
        PNCounter(GCounter({"b": 3}), GCounter()),
        PNCounter(GCounter({"a": 1}), GCounter({"b": 2})),
    ),
    "VectorClock": (
        VectorClock({"n1": 1}),
        VectorClock({"n1": 2, "n2": 1}),
        VectorClock({"n3": 4}),
    ),
    "CausalValue": (
        CausalValue(VectorClock({"n1": 1}), SetUnion({"x"})),
        CausalValue(VectorClock({"n1": 1, "n2": 1}), SetUnion({"y"})),
        CausalValue(VectorClock({"n2": 2}), SetUnion({"z"})),
    ),
    "LWWRegister": (
        LWWRegister(1.0, "old"),
        LWWRegister(2.0, "new"),
        LWWRegister(2.0, "tie", tiebreak="b"),
    ),
    "MapLattice": (
        MapLattice({"x": SetUnion({1})}),
        MapLattice({"x": SetUnion({2}), "y": MaxInt(3)}),
        MapLattice({"z": GCounter({"a": 1})}),
    ),
    "PairLattice": (
        PairLattice(MaxInt(1), SetUnion({1})),
        PairLattice(MaxInt(2), SetUnion({2})),
        PairLattice(MaxInt(0), SetUnion({3})),
    ),
    "ProductLattice": (
        ProductLattice({"count": MaxInt(1)}),
        ProductLattice({"count": MaxInt(2), "seen": SetUnion({"a"})}),
        ProductLattice({"seen": SetUnion({"b"})}),
    ),
    "DominatingPair": (
        DominatingPair(VectorClock({"n1": 1}), SetUnion({"x"})),
        DominatingPair(VectorClock({"n1": 2}), SetUnion({"y"})),
        DominatingPair(VectorClock({"n2": 1}), SetUnion({"z"})),
    ),
}


def unchanged(value, before):
    """``value`` still equals its earlier deep copy and hashes the same."""
    return value == before and hash(value) == hash(before)


@pytest.fixture(params=sorted(SAMPLES), ids=sorted(SAMPLES))
def triple(request):
    return SAMPLES[request.param]


class TestMergeIsPure:
    def test_merge_of_a_copy_matches_merge(self, triple):
        for a in triple:
            for b in triple:
                assert copy.deepcopy(a).merge(copy.deepcopy(b)) == a.merge(b)

    def test_operands_are_never_mutated(self, triple):
        for a in triple:
            for b in triple:
                a_before, b_before = copy.deepcopy(a), copy.deepcopy(b)
                a.merge(b)
                assert unchanged(a, a_before)
                assert unchanged(b, b_before)

    def test_commutativity(self, triple):
        for a in triple:
            for b in triple:
                assert a.merge(b) == b.merge(a)

    def test_associativity(self, triple):
        a, b, c = triple
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_idempotence(self, triple):
        for a in triple:
            assert a.merge(a) == a

    def test_chained_merges_leave_every_intermediate_unchanged(self, triple):
        a, b, c = triple
        first = a.merge(b)
        first_before = copy.deepcopy(first)
        second = first.merge(c)
        second_before = copy.deepcopy(second)
        last = second.merge(b)
        assert last == a.merge(b).merge(c)
        assert unchanged(first, first_before)
        assert unchanged(second, second_before)

    def test_fast_leq_agrees_with_merge_definition(self, triple):
        for a in triple:
            for b in triple:
                assert a.leq(b) == (a.merge(b) == b)


class TestJoinAll:
    def test_join_all_equals_fold_of_merges(self, triple):
        a, b, c = triple
        assert join_all([a, b, c]) == a.merge(b).merge(c)

    def test_join_all_does_not_mutate_inputs(self, triple):
        snapshots = copy.deepcopy(triple)
        join_all(triple)
        for value, before in zip(triple, snapshots):
            assert unchanged(value, before)

    def test_join_all_single_value_and_empty(self, triple):
        a, _, _ = triple
        assert join_all([a]) == a
        assert join_all([]) == BOTTOM

    def test_join_all_with_start_does_not_mutate_start(self, triple):
        a, b, _ = triple
        start_before = copy.deepcopy(a)
        result = join_all([b], start=a)
        assert unchanged(a, start_before)
        assert result == a.merge(b)


class TestUpdatesReturnNewValues:
    def test_map_merge_result_hashes_like_a_fresh_map(self):
        base = MapLattice({"x": SetUnion({1})})
        hash_before = hash(base)
        grown = base.merge(MapLattice({"y": SetUnion({2})}))
        fresh = MapLattice({"x": SetUnion({1}), "y": SetUnion({2})})
        assert grown == fresh and hash(grown) == hash(fresh)
        assert base == MapLattice({"x": SetUnion({1})})
        assert hash(base) == hash_before != hash(grown)

    def test_map_insert_leaves_the_receiver_unchanged(self):
        base = MapLattice({"x": SetUnion({1})})
        hash_before = hash(base)
        inserted = base.insert("x", SetUnion({2}))
        fresh = MapLattice({"x": SetUnion({1, 2})})
        assert inserted == fresh and hash(inserted) == hash(fresh)
        assert base["x"] == SetUnion({1})
        assert hash(base) == hash_before

    def test_map_merge_shares_leaf_values_without_writing_through_them(self):
        theirs_leaf = SetUnion({1})
        theirs = MapLattice({"k": theirs_leaf})
        mine = MapLattice().merge(theirs)
        mine = mine.merge(MapLattice({"k": SetUnion({2})}))
        assert theirs_leaf == SetUnion({1})
        assert theirs["k"] == SetUnion({1})
        assert mine["k"] == SetUnion({1, 2})

    def test_set_add_and_merge_leave_the_receiver_unchanged(self):
        grown = SetUnion({1})
        hash_before = hash(grown)
        assert grown.add(2) == grown.merge(SetUnion({2})) == SetUnion({1, 2})
        assert hash(grown.add(2)) == hash(SetUnion({1, 2}))
        assert grown == SetUnion({1}) and hash(grown) == hash_before

    def test_two_phase_set_add_and_remove_leave_the_receiver_unchanged(self):
        tp = TwoPhaseSet({1, 2}, ())
        before = copy.deepcopy(tp)
        assert tp.remove(1).live == {2}
        assert tp.add(3).live == {1, 2, 3}
        assert unchanged(tp, before)
        assert tp.live == {1, 2}

    def test_pn_counter_merge_leaves_shared_components_unchanged(self):
        shared = PNCounter(GCounter({"a": 1}), GCounter())
        merged = shared.merge(PNCounter(GCounter({"b": 1}), GCounter()))
        merged = merged.merge(PNCounter(GCounter({"a": 5}), GCounter({"a": 2})))
        merged = merged.increment("c").decrement("a")
        assert merged.value == 5 + 1 + 1 - 3
        assert shared.positive == GCounter({"a": 1})
        assert shared.negative == GCounter()
        assert shared.value == 1

    def test_clock_and_counter_advances_leave_the_receiver_unchanged(self):
        clock = VectorClock({"n1": 1})
        counter = GCounter({"a": 2})
        versioned = CausalValue(clock, SetUnion({"x"}))
        assert clock.advance("n1").get("n1") == 2
        assert counter.increment("a", 3).value == 5
        assert versioned.updated("n2", SetUnion({"y"})).clock.get("n2") == 1
        assert clock == VectorClock({"n1": 1})
        assert counter == GCounter({"a": 2})
        assert versioned == CausalValue(VectorClock({"n1": 1}), SetUnion({"x"}))

    def test_register_write_and_product_field_leave_the_receiver_unchanged(self):
        register = LWWRegister(1.0, "old")
        product = ProductLattice({"count": MaxInt(1)})
        assert register.write(2.0, "new").value == "new"
        assert product.with_field("count", MaxInt(4))["count"] == MaxInt(4)
        assert register == LWWRegister(1.0, "old")
        assert product == ProductLattice({"count": MaxInt(1)})
