"""Crash-faulty clients: pending semantics, the session crash boundary,
history well-formedness, and stealth-fault localization.

The session-cache regression here pins the crash boundary end to end: a
replacement identity must come back with *empty* read-your-writes and
monotonic-reads caches and a bumped incarnation, or the old session's
frontier leaks across the crash and fabricates guarantees the store
never made.
"""

import dataclasses

from repro.chaos import (
    Applied,
    ChaosConfig,
    CrashClient,
    Fault,
    History,
    Nemesis,
    RecordingKVSClient,
    build_env,
    diagnose,
    run_scenario,
    standard_schedule,
)
from repro.chaos.history import FAIL, INVOKED, OK, PENDING
from repro.lattices import SetUnion

#: Seeds for the history well-formedness property sweep — a slice of the
#: CI sweep's range; the full 25 are covered by the sweep job itself.
PROPERTY_SEEDS = (0, 7, 16)


def build_client(seed=1):
    env = build_env(seed, ChaosConfig())
    history = History()
    client = RecordingKVSClient("kv-client-under-test", env.simulator,
                                env.network, env.kvs, history)
    env.register_clients([client])
    return env, history, client


class TestCrashSemantics:
    def test_inflight_ops_freeze_as_pending(self):
        env, history, client = build_client()
        env.simulator.schedule_at(
            5.0, lambda: client.put_recorded("k", SetUnion({"v"})))
        # Crash before any reply can arrive (base delay is 1.0).
        env.simulator.schedule_at(5.2, client.crash)
        env.simulator.run(until=50.0)
        (op,) = history.ops
        assert op.status == PENDING
        assert op.completed_at is None
        assert op.info["crashed_at"] == 5.2

    def test_completed_op_is_not_disturbed_by_a_later_crash(self):
        env, history, client = build_client()
        env.simulator.schedule_at(
            5.0, lambda: client.put_recorded("k", SetUnion({"v"})))
        env.simulator.run(until=30.0)
        (op,) = history.ops
        assert op.status == OK
        client.crash()
        assert op.status == OK  # a crash cannot un-observe a response

    def test_dead_client_issues_nothing(self):
        env, history, client = build_client()
        client.crash()
        assert client.put_recorded("k", SetUnion({"v"})) is None
        assert client.get_recorded("k") is None
        assert history.ops == []


class TestSessionCrashBoundary:
    def test_replacement_identity_inherits_no_session_caches(self):
        env, history, client = build_client()
        env.simulator.schedule_at(
            5.0, lambda: client.put_recorded("k", SetUnion({"old"})))
        env.simulator.schedule_at(9.0, lambda: client.get_recorded("k"))
        env.simulator.run(until=20.0)
        assert client.session_writes.get("k") is not None
        assert client.session_reads.get("k") is not None
        first_incarnation = client.incarnation

        client.crash()
        client.recover(lose_state=True)

        assert client.session_writes.get("k") is None
        assert client.session_reads.get("k") is None
        assert client.pending_gets == {}
        assert client.completed_gets == {}
        assert client.acked_puts == set()
        assert client.incarnation == first_incarnation + 1

    def test_new_session_reads_are_not_backfilled_by_old_writes(self):
        # The old session wrote {"old"}; after the crash the new session's
        # first read must reflect only what the *store* has, never a
        # client-side merge with the dead session's write cache.
        env, history, client = build_client()
        env.simulator.schedule_at(
            5.0, lambda: client.put_recorded("ghost-key", SetUnion({"old"})))
        env.simulator.schedule_at(5.2, client.crash)
        env.simulator.schedule_at(
            30.0, lambda: client.recover(lose_state=True))
        env.simulator.schedule_at(
            35.0, lambda: client.get_recorded("ghost-key"))
        env.simulator.run(until=60.0)
        read = history.ops_for(action="get")[-1]
        assert read.status == OK
        # Whatever the store replied is fine (the pending put may have
        # landed replica-side); the *cache* must not be the source.
        assert client.session_writes.get("ghost-key") is None

    def test_crash_client_fault_records_incarnation_split(self):
        env, history, client = build_client()
        env.simulator.schedule_at(
            5.0, lambda: client.put_recorded("k", SetUnion({"a"})))
        Nemesis(env, [CrashClient(at=5.1, index=0, downtime=20.0)]).start()
        env.simulator.schedule_at(
            40.0, lambda: client.put_recorded("k", SetUnion({"b"})))
        env.simulator.run(until=80.0)
        first, second = history.ops
        assert first.status == PENDING
        assert second.status == OK
        assert second.info["incarnation"] == first.info["incarnation"] + 1


class TestHistoryWellFormedness:
    """Property sweep: structural invariants of every recorded history."""

    def test_histories_are_well_formed_across_seeds(self):
        for seed in PROPERTY_SEEDS:
            result = run_scenario(seed, standard_schedule())
            history, env = result.history, result.env
            crashed_clients = {
                subject[1] for entry in env.ground_truth
                if (subject := entry["subject"])[0] == "client"}
            op_ids = [op.op_id for op in history.ops]
            assert len(op_ids) == len(set(op_ids)), f"seed {seed}"
            for op in history.ops:
                assert op.status in (INVOKED, OK, FAIL, PENDING)
                # Every completion belongs to a real invocation.
                assert op.invoked_at >= 0.0
                if op.status in (OK, FAIL):
                    assert op.completed_at is not None
                    assert op.completed_at >= op.invoked_at, \
                        f"seed {seed}: {op.describe()}"
                else:
                    assert op.completed_at is None
                if op.status == PENDING:
                    assert op.client in crashed_clients, (
                        f"seed {seed}: pending op from a client the "
                        f"nemesis never crashed: {op.describe()}")
                    assert op.info["crashed_at"] >= op.invoked_at


@dataclasses.dataclass(frozen=True)
class StealthSlowdown(Fault):
    """A degradation the localizer is *not* told about: slows one node's
    links without recording any ground truth."""

    node_id: str = "kvs-g0-s0-r0"
    duration: float = 60.0
    factor: float = 4.0

    span = property(lambda self: self.duration)

    def apply(self, env, firing):
        handle = env.network.degrade(delay_factor=self.factor,
                                     node=self.node_id)
        # text=None, subject=None: neither logged nor announced; the restore
        # returns None, so the retirement is silent too.
        return [Applied(None, subject=None, retire_label="stealth-restore",
                        retire=lambda: env.network.restore(handle))]


class TestStealthFaultLocalization:
    def test_unscheduled_degradation_is_pinpointed(self):
        schedule = [StealthSlowdown(at=40.0)]
        result = run_scenario(3, schedule, checker="convergence")
        assert result.env.ground_truth == []  # truly unannounced
        report = diagnose(result.env, result.history)
        assert ("node", "kvs-g0-s0-r0") in report.subjects()
        (blame,) = [b for b in report.blames
                    if b.subject == ("node", "kvs-g0-s0-r0")]
        assert blame.kind == "node-slow"
        # The blame window overlaps the stealth fault's actual window.
        assert any(start < 100.0 and end > 40.0
                   for start, end in blame.windows)
