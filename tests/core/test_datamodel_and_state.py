"""Tests for the HydroLogic data model and deferred-effect state."""

import pytest

from repro.core.datamodel import DataModel, EntityClass, FieldSpec
from repro.core.errors import SpecificationError
from repro.core.state import (
    AssignFieldEffect,
    AssignVarEffect,
    ChangeLog,
    DeleteRowEffect,
    MergeFieldEffect,
    MergeRowEffect,
    MergeVarEffect,
    ProgramState,
    SendEffect,
)
from repro.lattices import BoolOr, GCounter, MaxInt, SetUnion


def person_class():
    return EntityClass(
        "Person",
        fields=(
            FieldSpec("pid", int),
            FieldSpec("country", str, default=""),
            FieldSpec("contacts", lattice=SetUnion),
            FieldSpec("covid", lattice=BoolOr),
        ),
        key="pid",
        partition_by="country",
    )


def model():
    dm = DataModel()
    dm.add_class(person_class())
    dm.add_table("people", "Person")
    dm.add_var("vaccine_count", initial=5)
    dm.add_var("total_diagnoses", lattice=GCounter)
    return dm


class TestEntityClass:
    def test_key_must_be_a_field(self):
        with pytest.raises(SpecificationError):
            EntityClass("Bad", fields=(FieldSpec("a"),), key="missing")

    def test_partition_must_be_a_field(self):
        with pytest.raises(SpecificationError):
            EntityClass("Bad", fields=(FieldSpec("a"),), key="a", partition_by="missing")

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SpecificationError):
            EntityClass("Bad", fields=(FieldSpec("a"), FieldSpec("a")), key="a")

    def test_new_row_fills_defaults(self):
        row = person_class().new_row(pid=1)
        assert row["country"] == ""
        assert row["contacts"] == SetUnion()
        assert row["covid"] == BoolOr(False)

    def test_new_row_coerces_raw_lattice_values(self):
        row = person_class().new_row(pid=1, covid=True)
        assert row["covid"] == BoolOr(True)

    def test_new_row_rejects_unknown_fields(self):
        with pytest.raises(SpecificationError):
            person_class().new_row(pid=1, nonsense=3)

    def test_new_row_requires_key(self):
        with pytest.raises(SpecificationError):
            person_class().new_row(country="US")


class TestDataModel:
    def test_duplicate_declarations_rejected(self):
        dm = model()
        with pytest.raises(SpecificationError):
            dm.add_table("people", "Person")
        with pytest.raises(SpecificationError):
            dm.add_var("vaccine_count")

    def test_partition_key_prefers_hint(self):
        dm = model()
        assert dm.partition_key("people") == "country"

    def test_unknown_lookups_raise(self):
        dm = model()
        with pytest.raises(SpecificationError):
            dm.table("missing")
        with pytest.raises(SpecificationError):
            dm.var("missing")

    def test_describe_lists_everything(self):
        text = model().describe()
        assert "people" in text and "vaccine_count" in text


class TestProgramState:
    def test_merge_row_then_merge_field(self):
        state = ProgramState(model())
        state.apply(MergeRowEffect("people", {"pid": 1, "country": "US"}))
        state.apply(MergeFieldEffect("people", 1, "contacts", SetUnion({2})))
        state.apply(MergeFieldEffect("people", 1, "contacts", SetUnion({3})))
        row = state.table("people").get(1)
        assert row["contacts"] == SetUnion({2, 3})
        assert row["country"] == "US"

    def test_merge_row_merges_lattice_fields_of_existing_row(self):
        state = ProgramState(model())
        state.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({2})}))
        state.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({3})}))
        assert state.table("people").get(1)["contacts"] == SetUnion({2, 3})

    def test_merge_field_creates_missing_row(self):
        state = ProgramState(model())
        state.apply(MergeFieldEffect("people", 9, "covid", BoolOr(True)))
        assert bool(state.table("people").get(9)["covid"])

    def test_merge_into_non_lattice_field_rejected(self):
        state = ProgramState(model())
        with pytest.raises(SpecificationError):
            state.apply(MergeFieldEffect("people", 1, "country", SetUnion({"US"})))

    def test_assign_and_delete(self):
        state = ProgramState(model())
        state.apply(MergeRowEffect("people", {"pid": 1}))
        state.apply(AssignFieldEffect("people", 1, "country", "FR"))
        assert state.table("people").get(1)["country"] == "FR"
        state.apply(DeleteRowEffect("people", 1))
        assert state.table("people").get(1) is None

    def test_var_effects(self):
        state = ProgramState(model())
        state.apply(AssignVarEffect("vaccine_count", 3))
        assert state.var("vaccine_count") == 3
        state.apply(MergeVarEffect("total_diagnoses", GCounter().increment("n1", 2)))
        assert state.var("total_diagnoses").value == 2

    def test_merge_into_plain_var_rejected(self):
        state = ProgramState(model())
        with pytest.raises(SpecificationError):
            state.apply(MergeVarEffect("vaccine_count", GCounter().increment("n1")))

    def test_send_is_not_a_state_effect(self):
        state = ProgramState(model())
        with pytest.raises(SpecificationError):
            state.apply(SendEffect("alert", {"pid": 1}))

    def test_snapshot_is_isolated(self):
        state = ProgramState(model())
        state.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({2})}))
        snap = state.snapshot()
        state.apply(MergeFieldEffect("people", 1, "contacts", SetUnion({3})))
        assert snap.table("people").get(1)["contacts"] == SetUnion({2})

    def test_exported_entries_are_isolated(self):
        state = ProgramState(model())
        state.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({2})}))
        state.apply(MergeRowEffect("people", {"pid": 5}))
        entries = state.export([("people", 1), (None, "vaccine_count"), ("people", 9)])
        assert list(entries) == [("people", 1), (None, "vaccine_count")]   # 9 never existed
        assert entries["people", 1]["contacts"] is state.table("people").get(1)["contacts"]
        state.apply(MergeFieldEffect("people", 1, "contacts", SetUnion({3})))
        state.apply(AssignVarEffect("vaccine_count", 3))
        assert entries["people", 1]["contacts"] == SetUnion({2})
        assert entries[None, "vaccine_count"] == 5
        assert set(state.export()) == {("people", 1), ("people", 5),
                                       (None, "vaccine_count"), (None, "total_diagnoses")}

    def test_change_log_keeps_one_stamp_per_item_in_change_order(self):
        log = ChangeLog()
        for item in [("people", 1), ("people", 2), (None, "n"), ("people", 1)]:
            log.record(item)
        log.record(("people", 3), source="peer")
        assert log.seq == 5
        assert log.since(0) == [(("people", 2), 2, None), ((None, "n"), 3, None),
                                (("people", 1), 4, None), (("people", 3), 5, "peer")]
        assert log.since(3) == log.since(0)[2:]
        assert log.since(5) == []
        assert ChangeLog(seq=7).seq == 7 == ChangeLog(seq=7).floor and log.floor == 0

    def test_change_log_opens_a_ward_per_adoption_and_any_new_stamp_closes_it(self):
        log = ChangeLog()
        log.record(("people", 1), source="a", tag=4)
        log.record(("people", 2), source="a", tag=4)
        log.record(("people", 3))
        assert log.wards == {"a": {("people", 1): (4, 0), ("people", 2): (4, 0)}}
        log.record(("people", 1), source="b", tag=9)      # re-adopted from someone else
        log.record(("people", 2))                         # changed locally
        assert log.wards == {"b": {("people", 1): (9, 0)}}

    def test_merge_logs_inflations_with_their_source(self):
        left, right = ProgramState(model()), ProgramState(model())
        log = left.change_log = ChangeLog()
        left.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({2})}))
        left.apply(MergeRowEffect("people", {"pid": 2, "contacts": SetUnion({7})}))
        assert log.seq == 0                      # direct applies are not commits
        right.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({3})}))
        right.apply(MergeRowEffect("people", {"pid": 2}))
        right.apply(MergeRowEffect("people", {"pid": 4}))
        right.apply(MergeVarEffect("total_diagnoses", GCounter().increment("n1", 2)))
        left.merge_entries(right.export(), source="right", tag=7)
        # Row 1 merged beyond the peer's copy (it must go back to the peer),
        # row 2 taught nothing, row 4 and the var were adopted as they came —
        # and are the peer's wards, at the stamp its parcel carried.
        assert log.since(0) == [(("people", 1), 1, None), (("people", 4), 2, "right"),
                                ((None, "total_diagnoses"), 3, "right")]
        assert log.wards == {"right": {("people", 4): (7, 0),
                                       (None, "total_diagnoses"): (7, 0)}}
        left.merge_entries(right.export(), source="right")
        assert log.seq == 3

    def test_a_peers_genuine_merge_into_a_logged_item_shares_its_ward(self):
        """Every part of the join has an owner already: no stamp, the peer's
        ward instead — beside the stamp's owner, or beside another origin."""
        left = ProgramState(model())
        log = left.change_log = ChangeLog()
        own = MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({2})})
        left.apply(own)
        left.log_effects([own])
        peer = ProgramState(model())
        peer.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({3})}))
        peer.apply(MergeRowEffect("people", {"pid": 4, "contacts": SetUnion({5})}))
        left.merge_entries(peer.export(), source="a", tag=3)
        assert log.since(0) == [(("people", 1), 1, None), (("people", 4), 2, "a")]
        assert log.wards == {"a": {("people", 1): (3, 0), ("people", 4): (3, 0)}}

        other = ProgramState(model())
        other.apply(MergeRowEffect("people", {"pid": 4, "contacts": SetUnion({6})}))
        left.merge_entries(other.export(), source="b", tag=8)
        assert log.seq == 2
        assert log.wards == {"a": {("people", 1): (3, 0), ("people", 4): (3, 0)},
                             "b": {("people", 4): (8, 0)}}
        # What nobody is on the hook for is stamped: a passed-on entry, and
        # anything merged into an item the log does not hold.
        other.apply(MergeRowEffect("people", {"pid": 4, "contacts": SetUnion({7})}))
        left.merge_entries(other.export())
        assert log.since(2) == [(("people", 4), 3, None)]
        assert log.wards == {"a": {("people", 1): (3, 0)}}      # the new stamp closed both
        left.apply(MergeRowEffect("people", {"pid": 9, "contacts": SetUnion({1})}))
        other.apply(MergeRowEffect("people", {"pid": 9, "contacts": SetUnion({2})}))
        left.merge_entries({("people", 9): other.export()[("people", 9)]}, source="b", tag=9)
        assert log.since(3) == [(("people", 9), 4, None)]

    def test_merge_from_other_replica_converges(self):
        left = ProgramState(model())
        right = ProgramState(model())
        left.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({2})}))
        right.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({3})}))
        right.apply(MergeRowEffect("people", {"pid": 4}))
        left.merge_from(right)
        assert left.table("people").get(1)["contacts"] == SetUnion({2, 3})
        assert 4 in left.table("people")
