"""Tests for the HydroLogic data model and deferred-effect state."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    _join_plain,
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

    def test_describe_shows_the_partition_hint(self):
        dm = model()
        assert "key=pid partition=country" in dm.describe()

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
        assert log.since(0) == [(("people", 2), 2), ((None, "n"), 3),
                                (("people", 1), 4), (("people", 3), 5)]
        assert log.sources == {("people", 3): "peer"}
        assert log.since(3) == log.since(0)[2:]
        assert log.since(1, 3) == log.since(0)[:2]
        assert log.since(5) == []
        log.record(("people", 3))                       # changed here: no source now
        assert log.sources == {}
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
        assert log.since(0) == [(("people", 1), 1), (("people", 4), 2),
                                ((None, "total_diagnoses"), 3)]
        assert log.sources == {("people", 4): "right", (None, "total_diagnoses"): "right"}
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
        assert log.since(0) == [(("people", 1), 1), (("people", 4), 2)]
        assert log.sources == {("people", 4): "a"}
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
        assert log.since(2) == [(("people", 4), 3)] and ("people", 4) not in log.sources
        assert log.wards == {"a": {("people", 1): (3, 0)}}      # the new stamp closed both
        left.apply(MergeRowEffect("people", {"pid": 9, "contacts": SetUnion({1})}))
        other.apply(MergeRowEffect("people", {"pid": 9, "contacts": SetUnion({2})}))
        left.merge_entries({("people", 9): other.export()[("people", 9)]}, source="b", tag=9)
        assert log.since(3) == [(("people", 9), 4)] and ("people", 9) not in log.sources

    def test_merge_from_other_replica_converges(self):
        left = ProgramState(model())
        right = ProgramState(model())
        left.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({2})}))
        right.apply(MergeRowEffect("people", {"pid": 1, "contacts": SetUnion({3})}))
        right.apply(MergeRowEffect("people", {"pid": 4}))
        left.merge_from(right)
        assert left.table("people").get(1)["contacts"] == SetUnion({2, 3})
        assert 4 in left.table("people")


#: Set values of a plain field, of several types, frozensets among them
#: (their ``repr`` and ``hash`` follow ``PYTHONHASHSEED``).
PLAIN_VALUES = st.one_of(
    st.text(min_size=1, max_size=3),
    st.integers(),
    st.frozensets(st.text(max_size=2), min_size=1, max_size=3),
    st.tuples(st.text(max_size=2), st.integers(min_value=0, max_value=3)),
)


class TestPlainFieldJoin:
    """Replicas join a plain field: its default is bottom, and two set
    values resolve by a fixed total order, so the result never depends on
    the order writes arrive in."""

    def test_a_default_loses_to_a_set_value_in_either_order(self):
        created_by_a_lattice_merge = ProgramState(model())
        created_by_a_lattice_merge.apply(MergeFieldEffect("people", 1, "contacts", SetUnion({2})))
        created_by_a_lattice_merge.apply(MergeRowEffect("people", {"pid": 1, "country": "US"}))
        defaulted_later = ProgramState(model())
        defaulted_later.apply(MergeRowEffect("people", {"pid": 1, "country": "US"}))
        defaulted_later.apply(MergeRowEffect("people", {"pid": 1}))
        for state in (created_by_a_lattice_merge, defaulted_later):
            assert state.table("people").get(1)["country"] == "US"

    def test_two_set_values_resolve_alike_on_every_replica(self):
        writes = [MergeRowEffect("people", {"pid": 1, "country": country})
                  for country in ("US", "DE", "FR")]
        states = []
        for order in (writes, writes[::-1], writes[1:] + writes[:1]):
            state = ProgramState(model())
            for effect in order:
                state.apply(effect)
            states.append(state)
        countries = {state.table("people").get(1)["country"] for state in states}
        assert len(countries) == 1
        left = ProgramState(model())
        left.apply(MergeRowEffect("people", {"pid": 1, "country": "US"}))
        right = ProgramState(model())
        right.apply(MergeRowEffect("people", {"pid": 1, "country": "DE"}))
        right.apply(MergeRowEffect("people", {"pid": 1, "country": "FR"}))
        left.merge_from(right)
        right.merge_from(left)
        assert {left.table("people").get(1)["country"],
                right.table("people").get(1)["country"]} == countries

    def test_a_peer_row_reports_a_plain_change_once(self):
        state = ProgramState(model())
        state.apply(MergeRowEffect("people", {"pid": 1}))
        table = state.table("people")
        peer_row = person_class().new_row(pid=1, country="US")
        assert table.merge_peer_row(1, peer_row)
        assert table.get(1)["country"] == "US"
        assert not table.merge_peer_row(1, peer_row)
        assert not table.merge_peer_row(1, person_class().new_row(pid=1))  # a default teaches nothing
        assert table.get(1)["country"] == "US"

    @settings(max_examples=300, deadline=None)
    @given(bottom=st.sampled_from([None, ""]),
           values=st.lists(PLAIN_VALUES, min_size=3, max_size=3), data=st.data())
    def test_the_join_is_commutative_associative_and_idempotent(self, bottom, values, data):
        a, b, c = (data.draw(st.sampled_from([value, bottom]), label=f"operand {index}")
                   for index, value in enumerate(values))

        def join(x, y):
            return _join_plain(x, y, bottom)

        assert join(a, b) == join(b, a)
        assert join(join(a, b), c) == join(a, join(b, c))
        assert join(a, a) == a
        assert join(a, bottom) == a == join(bottom, a)

    def test_the_order_of_set_values_ignores_the_hash_seed(self):
        script = ("from repro.core.state import _join_plain\n"
                  "values = [frozenset({'a', 'b', 'c'}), frozenset({'d', 'e'}), frozenset({'f'}),\n"
                  "          ('x', 1), 'US', 'DE', 7, -3]\n"
                  "print([values.index(_join_plain(x, y, None)) for x in values for y in values])\n")
        root = Path(__file__).resolve().parents[2]
        outputs = []
        for seed in ("1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
