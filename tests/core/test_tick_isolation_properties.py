"""Property tests: the copy-free interpreter keeps the copying one's guarantees.

``run_tick`` reads the live state, trials invariants in place behind an undo
journal that keeps the rows it displaced, and ``ProgramState.snapshot``, the
gossip payloads of ``ProgramState.export`` and handler reads share the
stored rows themselves, which are immutable.  The oracle for all of them is
``copy.deepcopy`` — which lives only here.
"""

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ConsistencyLevel,
    ConsistencySpec,
    EffectKind,
    EffectSpec,
    HydroProgram,
    Invariant,
    SingleNodeInterpreter,
)
from repro.core.datamodel import FieldSpec
from repro.core.errors import SpecificationError
from repro.core.handlers import HandlerContext, StateView
from repro.core.state import ChangeLog
from repro.lattices import BoolOr, MaxInt, SetUnion

KEYS = st.integers(min_value=0, max_value=5)
TAGS = st.sampled_from("abcd")

#: One state change, as data: ``emit`` turns it into a recorded effect.
OPS = st.one_of(
    st.tuples(st.just("merge_row"), KEYS, st.frozensets(TAGS, max_size=3)),
    st.tuples(st.just("merge_field"), KEYS, TAGS),
    st.tuples(st.just("flag"), KEYS),
    st.tuples(st.just("assign_field"), KEYS, st.sampled_from(["x", "y", None])),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("merge_var"), st.integers(0, 9)),
    st.tuples(st.just("assign_var"), st.integers(0, 9)),
)
BATCHES = st.lists(OPS, max_size=8)


def emit(ctx, op):
    kind, *args = op
    if kind == "merge_row":
        ctx.merge_row("items", key=args[0], tags=SetUnion(args[1]))
    elif kind == "merge_field":
        ctx.merge_field("items", args[0], "tags", SetUnion({args[1]}))
    elif kind == "flag":
        ctx.merge_field("items", args[0], "hot", BoolOr(True))
    elif kind == "assign_field":
        ctx.assign_field("items", args[0], "note", args[1])
    elif kind == "delete":
        ctx.delete_row("items", args[0])
    elif kind == "merge_var":
        ctx.merge_var("high", MaxInt(args[0]))
    else:
        ctx.assign_var("budget", args[0])


def observe(view):
    """Everything a handler can read, as plain comparable data."""
    return (view.rows("items"), view.keys("items"), view.count("items"),
            view.var("budget"), view.var("high"), view.query("tag_count"))


def dump(state):
    """A state's full contents, row order included."""
    return ([(name, list(table.rows.items())) for name, table in state.tables.items()],
            dict(state.vars))


def build_program(seen):
    """``batch`` applies ops unguarded; ``guarded`` needs ``budget >= 0``.
    Both append what their body read to ``seen``."""
    program = HydroProgram("scratch")
    program.add_class("Item", fields=[
        FieldSpec("key", int),
        FieldSpec("tags", lattice=SetUnion),
        FieldSpec("hot", lattice=BoolOr),
        FieldSpec("note", str),
    ], key="key")
    program.add_table("items", "Item")
    program.add_var("budget", initial=3)
    program.add_var("high", lattice=MaxInt)
    program.add_query(
        "tag_count", lambda view: sum(len(row["tags"]) for row in view.rows("items")),
        reads=["items"])

    def body(ctx, ops):
        seen.append(observe(ctx.view))
        for op in ops:
            emit(ctx, op)
        ctx.respond(observe(ctx.view))

    effects = [EffectSpec(kind, target)
               for kind in (EffectKind.MERGE, EffectKind.ASSIGN, EffectKind.DELETE)
               for target in ("items", "budget", "high")]
    program.add_handler("batch", body, params=["ops"], effects=effects,
                        reads=["items", "budget", "high"], queries=["tag_count"])
    program.add_handler(
        "guarded", body, params=["ops"], effects=effects,
        reads=["items", "budget", "high"], queries=["tag_count"],
        consistency=ConsistencySpec(
            ConsistencyLevel.SERIALIZABLE,
            invariants=(Invariant("budget_non_negative", lambda v: v.var("budget") >= 0),)))
    return program


def seeded_interpreter(seed_ops, seen=None):
    interp = SingleNodeInterpreter(build_program([] if seen is None else seen))
    interp.call("batch", ops=seed_ops)
    interp.run_tick()
    if seen is not None:
        seen.clear()
    return interp


def effects_of(interp, ops):
    """The effect records a handler emitting ``ops`` would leave behind."""
    ctx = HandlerContext(interp.program.handlers["batch"], interp.view())
    for op in ops:
        emit(ctx, op)
    return ctx.effects


VIOLATE = ("assign_var", -1)


# -- (i) every handler of a tick reads the pre-tick state ------------------------


@given(BATCHES, st.lists(st.tuples(st.booleans(), BATCHES, st.booleans()),
                         min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_every_handler_in_a_tick_observes_the_pre_tick_state(seed_ops, requests):
    seen = []
    interp = seeded_interpreter(seed_ops, seen)
    expected = observe(StateView(copy.deepcopy(interp.state), interp.program.queries))

    ids = [interp.call("guarded" if guarded else "batch",
                       ops=ops + [VIOLATE] if violate else ops)
           for guarded, ops, violate in requests]
    outcome = interp.run_tick()

    # What each body read while it ran, and what it handed back: both are the
    # pre-tick state, untouched by the applies (and roll-backs) that followed.
    assert seen == [expected] * len(requests)
    for request_id in ids:
        if request_id not in outcome.rejected:
            assert outcome.responses[request_id] == expected


# -- (ii) a rejected request leaves no trace ---------------------------------------


@given(BATCHES, BATCHES, st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_rejected_request_leaves_state_deep_equal(seed_ops, ops, violate_at):
    interp = seeded_interpreter(seed_ops)
    before = copy.deepcopy(interp.state)
    log = interp.state.change_log = ChangeLog()

    ops = list(ops)
    ops.insert(min(violate_at, len(ops)), VIOLATE)
    ops = [op for op in ops if op[0] != "assign_var" or op is VIOLATE]
    request_id = interp.call("guarded", ops=ops)
    outcome = interp.run_tick()

    assert request_id in outcome.rejected
    assert dump(interp.state) == dump(before)
    assert (log.seq, log.since(0)) == (0, [])   # nothing to gossip either


def test_rollback_covers_every_effect_kind():
    interp = seeded_interpreter([("merge_row", 1, {"a"}), ("merge_row", 2, {"b"}),
                                 ("merge_row", 3, set()), ("assign_field", 2, "x")])
    before = copy.deepcopy(interp.state)
    request_id = interp.call("guarded", ops=[
        ("merge_row", 9, {"c"}),        # row creation ...
        ("merge_field", 9, "d"),        # ... and a second effect on the same row
        ("merge_field", 7, "a"),        # creation through a field merge
        ("delete", 1),                  # delete of a row that is not the last
        ("merge_row", 1, {"z"}),        # ... re-created after it
        ("assign_field", 2, "y"),       # plain overwrite
        ("flag", 3),
        ("delete", 5),                  # delete of a row that never existed
        ("merge_var", 9),
        ("assign_var", 1),
        VIOLATE,
    ])
    outcome = interp.run_tick()
    assert request_id in outcome.rejected
    assert dump(interp.state) == dump(before)
    assert interp.view().keys("items") == [1, 2, 3]


def test_failing_trial_is_rolled_back_too():
    interp = seeded_interpreter([("merge_row", 1, {"a"})])
    before = copy.deepcopy(interp.state)

    def broken(ctx):
        ctx.merge_field("items", 4, "tags", SetUnion({"q"}))
        ctx.merge_field("items", 1, "note", SetUnion({"not a lattice field"}))

    handlers = interp.program.handlers
    handlers["guarded"] = dataclasses.replace(handlers["guarded"], body=broken, params=())
    interp.call("guarded")
    with pytest.raises(SpecificationError):
        interp.run_tick()
    assert dump(interp.state) == dump(before)


@given(BATCHES, BATCHES)
@settings(max_examples=150, deadline=None)
def test_accepted_trial_equals_plain_application(seed_ops, ops):
    interp = seeded_interpreter(seed_ops)
    expected = copy.deepcopy(interp.state)
    expected.apply_all(effects_of(interp, ops))
    log = interp.state.change_log = ChangeLog()

    request_id = interp.call("guarded", ops=ops)
    outcome = interp.run_tick()

    assert request_id in outcome.responses
    assert dump(interp.state) == dump(expected)
    # The change log stamps exactly what the effects touched, one stamp per
    # effect, and keeps each item once, at its latest stamp, oldest first.
    touched = [(None, {"merge_var": "high", "assign_var": "budget"}[op[0]])
               if op[0].endswith("_var") else ("items", op[1]) for op in ops]
    latest = {item: stamp for stamp, item in enumerate(touched, start=1)}
    assert log.seq == len(ops)
    assert log.since(0) == sorted(latest.items(), key=lambda pair: pair[1])


# -- (iii) snapshots are isolated in both directions -----------------------------------


@given(BATCHES, BATCHES, BATCHES)
@settings(max_examples=200, deadline=None)
def test_snapshot_is_isolated_both_ways(seed_ops, live_ops, snapshot_ops):
    interp = seeded_interpreter(seed_ops)
    live = interp.state
    snapshot = live.snapshot()
    at_snapshot = copy.deepcopy(live)
    assert dump(snapshot) == dump(at_snapshot)

    live.apply_all(effects_of(interp, live_ops))
    assert dump(snapshot) == dump(at_snapshot)

    live_after = copy.deepcopy(live)
    effects = effects_of(interp, snapshot_ops)
    snapshot.apply_all(effects)
    at_snapshot.apply_all(effects)
    assert dump(live) == dump(live_after)
    assert dump(snapshot) == dump(at_snapshot)


# -- (iv) gossip payloads are isolated from sender and receivers ------------------------


@given(BATCHES, BATCHES, BATCHES, BATCHES)
@settings(max_examples=200, deadline=None)
def test_gossip_payload_is_isolated_from_sender_and_receiver(
        seed_ops, peer_ops, sender_ops, receiver_ops):
    sender = seeded_interpreter(seed_ops)
    receiver = seeded_interpreter(peer_ops)
    payload = sender.state.export()
    shipped = copy.deepcopy(payload)
    for (table, key), value in payload.items():
        if table is not None:       # rows are immutable, so they are shared
            assert value is sender.state.table(table).get(key)

    # The sender moves on; what it handed to the transport does not.
    sender.state.apply_all(effects_of(sender, sender_ops))
    assert payload == shipped

    # A receiver merges it (adopting shared values) and moves on: neither the
    # payload — another peer may still be reading it — nor the sender sees it.
    sender_after = copy.deepcopy(sender.state)
    receiver.state.merge_entries(payload, source="sender")
    receiver.state.apply_all(effects_of(receiver, receiver_ops))
    assert payload == shipped
    assert dump(sender.state) == dump(sender_after)


@given(BATCHES, BATCHES)
@settings(max_examples=200, deadline=None)
def test_merge_logs_only_what_inflated(seed_ops, peer_ops):
    receiver = seeded_interpreter(seed_ops)
    peer = seeded_interpreter(peer_ops)
    log = receiver.state.change_log = ChangeLog()
    before = copy.deepcopy(receiver.state)

    receiver.state.merge_entries(peer.state.export(), source="peer")

    changed = set()
    for name, table in receiver.state.tables.items():
        was = before.tables[name].rows
        changed |= {(name, key) for key, row in table.rows.items() if row != was.get(key)}
    changed |= {(None, name) for name, value in receiver.state.vars.items()
                if value != before.vars[name]}
    assert {item for item, _ in log.since(0)} == changed
    # Merging the same entries again is a no-op and logs nothing.
    stamp = log.seq
    receiver.state.merge_entries(peer.state.export(), source="peer")
    assert log.seq == stamp
