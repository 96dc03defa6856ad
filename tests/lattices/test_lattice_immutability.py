"""Sample-based tests that lattice values are immutable.

For every lattice type, three hand-picked points (overlapping, concurrent
and ordered combinations) pin what ``tests/lattices/test_lattice_properties.py``
checks over generated points: ``merge`` returns new values, leaves every
operand and its hash as it was, and still satisfies the semilattice laws.
The update helpers (``add``, ``insert``, ``increment``, ``advance`` ...)
return new values too, which is what lets state, tick reads, client caches
and in-flight messages share one lattice object.
"""

import copy
from functools import reduce

import pytest

from repro.cluster import payload_digest
from repro.lattices import (
    BOTTOM,
    BoolOr,
    GCounter,
    LWWRegister,
    MapLattice,
    MaxInt,
    SetUnion,
    TwoPhaseSet,
    VectorClock,
)

# Three representative points per lattice type, deliberately including
# overlapping / concurrent / ordered combinations.
SAMPLES = {
    "BoolOr": (BoolOr(False), BoolOr(True), BoolOr(False)),
    "MaxInt": (MaxInt(3), MaxInt(7), MaxInt(5)),
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
    "VectorClock": (
        VectorClock({"n1": 1}),
        VectorClock({"n1": 2, "n2": 1}),
        VectorClock({"n3": 4}),
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

    def test_a_fold_of_merges_mutates_no_input(self, triple):
        snapshots = copy.deepcopy(triple)
        reduce(lambda acc, value: acc.merge(value), triple)
        for value, before in zip(triple, snapshots):
            assert unchanged(value, before)


class TestSamplesKeepTheLatticeContract:
    def test_bottom_is_an_identity_for_every_sample(self, triple):
        bottom = type(triple[0]).bottom()
        assert bottom.is_bottom() and BOTTOM == bottom
        for a in triple:
            assert bottom.merge(a) == a == a.merge(bottom)
            assert BOTTOM.merge(a) == a

    def test_merge_is_the_least_upper_bound(self, triple):
        for a in triple:
            for b in triple:
                joined = a.merge(b)
                assert a.leq(joined) and b.leq(joined)
                uppers = [joined.merge(c) for c in triple]
                for upper in list(triple) + uppers:
                    if a.leq(upper) and b.leq(upper):
                        assert joined.leq(upper)

    def test_order_operators_agree_with_leq(self, triple):
        for a in triple:
            for b in triple:
                assert (a <= b) == a.leq(b)
                assert (a >= b) == b.leq(a) == a.dominates(b)
                assert (a < b) == (a.leq(b) and a != b)
                assert (a > b) == (b.leq(a) and a != b)

    def test_both_merge_orders_print_hash_and_digest_alike(self, triple):
        """``repr`` is canonical: merges built in opposite insertion orders
        print, hash and digest alike, and unequal samples print apart."""
        for a in triple:
            for b in triple:
                assert (a == b) == (repr(a) == repr(b))
                ab, ba = a.merge(b), b.merge(a)
                assert repr(ab) == repr(ba)
                assert hash(ab) == hash(ba)
                assert payload_digest(ab) == payload_digest(ba)


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

    def test_clock_and_counter_advances_leave_the_receiver_unchanged(self):
        clock = VectorClock({"n1": 1})
        counter = GCounter({"a": 2})
        assert clock.advance("n1").get("n1") == 2
        assert counter.increment("a", 3).value == 5
        assert clock == VectorClock({"n1": 1})
        assert counter == GCounter({"a": 2})

    def test_register_write_leaves_the_receiver_unchanged(self):
        register = LWWRegister(1.0, "old")
        assert register.write(2.0, "new").value == "new"
        assert register == LWWRegister(1.0, "old")
