"""Unit tests for the chaos checkers: each must catch its violation class."""

import pytest

from repro.chaos import (
    ChaosConfig,
    History,
    build_env,
    calm_latency_bound,
    canonicalize,
    check_bounded_staleness,
    check_calm_coordination_free,
    check_causal,
    check_convergence,
    check_gossip_byte_budget,
    check_paxos_safety,
    check_session_guarantees,
    staleness_bound,
    state_digest,
)
from repro.consistency.causal import CausalMessage
from repro.lattices import SetUnion, TwoPhaseSet, VectorClock
from repro.storage.antientropy import PROBE_ROUNDS


def env_with(seed=1, **overrides):
    import dataclasses
    return build_env(seed, dataclasses.replace(ChaosConfig(), **overrides))


class TestHistory:
    def test_invoke_complete_lifecycle(self):
        history = History()
        op = history.invoke("c1", "put", "k", SetUnion({1}), at=3.0)
        assert not op.ok and op.latency is None
        history.complete(op, result="r", at=5.5, replica="n1")
        assert op.ok and op.latency == pytest.approx(2.5)
        assert op.info["replica"] == "n1"
        assert history.completed() == [op]

    def test_views_filter_and_group(self):
        history = History()
        history.invoke("c1", "put", "k")
        history.invoke("c2", "get", "k")
        history.invoke("c1", "get", "j")
        assert len(history.ops_for(client="c1")) == 2
        assert len(history.ops_for(action="get")) == 2
        assert set(history.by_client()) == {"c1", "c2"}
        assert history.actions() == {"put", "get"}


class TestConvergenceChecker:
    def test_flags_divergent_replicas(self):
        env = env_with(replication=2)
        replica_a, replica_b = env.kvs.shards[0]
        replica_a.merge_local("k", SetUnion({1}))
        replica_b.merge_local("k", SetUnion({2}))
        result = check_convergence(env)
        assert not result.ok
        assert "diverges" in result.failures[0]

    def test_flags_missing_replica_copy(self):
        env = env_with(replication=2)
        env.kvs.shards[0][0].merge_local("k", SetUnion({1}))
        assert not check_convergence(env).ok

    def test_flags_misplaced_key(self):
        env = env_with(shards=2, replication=1)
        key = "kv-0"
        wrong_shard = 1 - env.kvs.shard_for(key)
        for replica in env.kvs.shards[wrong_shard]:
            replica.merge_local(key, SetUnion({1}))
        result = check_convergence(env)
        assert any("resurrected" in failure for failure in result.failures)

    def test_passes_converged_store(self):
        env = env_with()
        for i in range(10):
            env.kvs.put(f"k-{i}", SetUnion({i}))
        env.kvs.settle(400.0)
        assert check_convergence(env).ok


class TestSessionChecker:
    def test_read_your_writes_violation(self):
        history = History()
        write = history.invoke("c1", "put", "k", SetUnion({"mine"}), at=1.0)
        history.complete(write, at=2.0)
        read = history.invoke("c1", "get", "k", at=3.0)
        history.complete(read, result=SetUnion({"other"}), at=4.0)
        result = check_session_guarantees(history)
        assert any("read-your-writes" in failure for failure in result.failures)

    def test_monotonic_reads_violation(self):
        history = History()
        first = history.invoke("c1", "get", "k", at=1.0)
        history.complete(first, result=SetUnion({1, 2}), at=2.0)
        second = history.invoke("c1", "get", "k", at=3.0)
        history.complete(second, result=SetUnion({1}), at=4.0)
        result = check_session_guarantees(history)
        assert any("monotonic reads" in failure for failure in result.failures)

    def test_clean_session_passes(self):
        history = History()
        write = history.invoke("c1", "put", "k", SetUnion({"a"}), at=1.0)
        history.complete(write, at=2.0)
        read = history.invoke("c1", "get", "k", at=3.0)
        history.complete(read, result=SetUnion({"a", "b"}), at=4.0)
        assert check_session_guarantees(history).ok

    def test_incomplete_reads_are_indeterminate_not_failures(self):
        history = History()
        history.invoke("c1", "put", "k", SetUnion({"a"}), at=1.0)
        history.invoke("c1", "get", "k", at=2.0)  # never completes
        assert check_session_guarantees(history).ok

    def test_pipelined_reads_judged_in_completion_order(self):
        """Two pipelined reads whose replies reorder are still monotone in
        completion order — the order the client actually returns values —
        and must not be flagged just because invocation order differs."""
        history = History()
        slow = history.invoke("c1", "get", "k", at=1.0)
        fast = history.invoke("c1", "get", "k", at=2.0)
        history.complete(fast, result=SetUnion({"f"}), at=4.0)
        history.complete(slow, result=SetUnion({"e", "f"}), at=21.0)
        assert check_session_guarantees(history).ok

    def test_read_regressing_to_none_is_flagged(self):
        history = History()
        first = history.invoke("c1", "get", "k", at=1.0)
        history.complete(first, result=SetUnion({"x"}), at=2.0)
        second = history.invoke("c1", "get", "k", at=3.0)
        history.complete(second, result=None, at=4.0)
        result = check_session_guarantees(history)
        assert any("observed None" in failure for failure in result.failures)


class TestCausalChecker:
    def message(self, origin, seq, deps=None):
        return CausalMessage(origin=origin, sequence=seq,
                             depends_on=VectorClock(deps or {}), payload=None)

    def test_fifo_gap_detected(self):
        deliveries = {"n1": [self.message("n2", 2)]}
        result = check_causal(deliveries)
        assert any("FIFO" in failure for failure in result.failures)

    def test_causal_dependency_violation_detected(self):
        # n1 delivers n2#1 which depends on n3#1, never delivered at n1.
        deliveries = {"n1": [self.message("n2", 1, deps={"n3": 1})]}
        result = check_causal(deliveries)
        assert any("causal violation" in failure for failure in result.failures)

    def test_valid_causal_order_passes(self):
        deliveries = {"n1": [self.message("n1", 1),
                             self.message("n2", 1, deps={"n1": 1}),
                             self.message("n2", 2, deps={"n1": 1, "n2": 1})]}
        assert check_causal(deliveries).ok


class TestPaxosChecker:
    class FakeReplica:
        def __init__(self, chosen):
            self.chosen = chosen

    def test_conflicting_decisions_detected(self):
        replicas = {"a": self.FakeReplica({0: "x"}),
                    "b": self.FakeReplica({0: "y"})}
        result = check_paxos_safety(replicas, {})
        assert any("decided differently" in failure
                   for failure in result.failures)

    def test_applied_prefix_divergence_detected(self):
        replicas = {"a": self.FakeReplica({}), "b": self.FakeReplica({})}
        applied = {"a": [(0, "x"), (1, "y")], "b": [(0, "x"), (1, "z")]}
        result = check_paxos_safety(replicas, applied)
        assert any("applied logs diverge" in failure
                   for failure in result.failures)

    def test_partial_but_consistent_logs_pass(self):
        replicas = {"a": self.FakeReplica({0: "x", 1: "y"}),
                    "b": self.FakeReplica({0: "x"})}
        applied = {"a": [(0, "x"), (1, "y")], "b": [(0, "x")]}
        assert check_paxos_safety(replicas, applied).ok


class TestCalmChecker:
    def test_blocked_monotone_op_detected(self):
        env = env_with()
        history = History()
        op = history.invoke("c1", "put", "k", SetUnion({1}), at=0.0)
        history.complete(op, at=calm_latency_bound(env) + 50.0)
        result = check_calm_coordination_free(history, env)
        assert any("blocked" in failure for failure in result.failures)

    def test_coordination_ops_exempt_from_latency_bound(self):
        env = env_with()
        history = History()
        op = history.invoke("p1", "propose", "v", at=0.0)
        history.complete(op, at=500.0)
        assert check_calm_coordination_free(history, env).ok

    def test_static_cross_check_passes_on_shipped_apps(self):
        env = env_with()
        assert check_calm_coordination_free(History(), env).ok

    def test_bound_scales_with_nemesis_induced_delay(self):
        env = env_with()
        pristine = calm_latency_bound(env)
        spike = env.network.degrade(delay_factor=8.0)
        assert calm_latency_bound(env) > pristine * 4
        env.network.restore(spike)
        # The bound keeps covering the worst delay ever induced, so ops
        # completed *during* the spike are still judged fairly.
        assert calm_latency_bound(env) > pristine * 4

    def test_retry_allowance_only_granted_when_a_retry_fired(self):
        """A fault-free run keeps the tight bound — an op that waited out a
        gossip round must still be flagged; once a transport retry actually
        fired, one (drift-scaled) retry timeout of grace is legitimate."""
        env = env_with()
        tight = calm_latency_bound(env)
        env.network.metrics.increment("transport.rpc_retries")
        assert calm_latency_bound(env) == pytest.approx(
            tight + env.rpc_retry_allowance())
        env.max_timer_drift = 2.0
        assert calm_latency_bound(env) == pytest.approx(
            tight + 2.0 * env.network.transport_config.rpc.retry_allowance)


class TestCanonicalDigests:
    def test_canonicalize_is_order_insensitive(self):
        assert canonicalize(SetUnion({1, 2, 3})) == canonicalize(SetUnion({3, 1, 2}))
        assert canonicalize(TwoPhaseSet(added={"a", "b"}, removed={"c"})) == \
            canonicalize(TwoPhaseSet(added={"b", "a"}, removed={"c"}))

    def test_state_digest_covers_every_replica(self):
        env = env_with(replication=2)
        env.kvs.put("k", SetUnion({1}))
        env.kvs.settle(200.0)
        digest = state_digest(env)
        for node in env.kvs.all_nodes():
            assert str(node.node_id) in digest


class TestBoundedStalenessChecker:
    """Acked writes must reach every replica within the anti-entropy bound."""

    GOSSIP = dict(full_sync_every=2, gossip_interval=5.0)

    def acked_put(self, env, history, key, value, at=1.0):
        replica = env.kvs.pick_replica(key)
        replica.merge_local(key, value)
        for peer in replica.peers:
            replica.queue(peer, "replicate", {"key": key, "value": value},
                          entries=1)
        op = history.invoke("c1", "put", key, value, at=at)
        history.complete(op, at=at + 1.0, replica=replica.node_id)
        return op

    def settle_past_bound(self, env):
        bound = staleness_bound(env, **self.GOSSIP)
        env.simulator.run(until=env.simulator.now + bound + 50.0)
        return bound

    def test_converged_writes_pass(self):
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        history = History()
        for i in range(6):
            self.acked_put(env, history, f"k-{i}", SetUnion({i}))
        self.settle_past_bound(env)
        result = check_bounded_staleness(history, env, **self.GOSSIP)
        assert result.ok, result.failures

    def test_flags_replica_that_never_observed_an_acked_write(self):
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        history = History()
        op = self.acked_put(env, history, "k", SetUnion({"v"}))
        self.settle_past_bound(env)
        # Simulate a replica the write never reached (a silently dropped
        # delta that anti-entropy also failed to heal).
        stale = env.kvs.replicas_for("k")[1]
        stale.store.pop("k", None)
        result = check_bounded_staleness(history, env, **self.GOSSIP)
        assert any("stale replica" in f and str(stale.node_id) in f
                   for f in result.failures)

    def test_flags_replica_holding_only_an_older_value(self):
        """Agreement on a stale value is exactly what convergence checking
        alone cannot catch: the replica holds *something*, just not the
        acked write."""
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        history = History()
        self.acked_put(env, history, "k", SetUnion({"old"}))
        self.acked_put(env, history, "k", SetUnion({"new"}), at=2.0)
        self.settle_past_bound(env)
        stale = env.kvs.replicas_for("k")[1]
        stale.store["k"] = SetUnion({"old"})
        result = check_bounded_staleness(history, env, **self.GOSSIP)
        assert any("stale replica" in f for f in result.failures)

    def test_unelapsed_bound_is_not_judged(self):
        """A write younger than the bound may legitimately still be in
        flight — the checker must not flag it."""
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        history = History()
        self.acked_put(env, history, "k", SetUnion({"v"}),
                       at=env.simulator.now)
        env.kvs.replicas_for("k")[1].store.pop("k", None)
        # No settle: now is still within the bound of the write.
        result = check_bounded_staleness(history, env, **self.GOSSIP)
        assert result.ok

    def test_staleness_clock_pauses_until_the_final_heal(self):
        """An old write is only due `bound` ticks after heal_everything —
        the nemesis may have held the links down the whole time before."""
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        history = History()
        self.acked_put(env, history, "k", SetUnion({"v"}))
        self.settle_past_bound(env)
        env.kvs.replicas_for("k")[1].store.pop("k", None)
        assert not check_bounded_staleness(history, env, **self.GOSSIP).ok
        # Now register a heal point at the current instant: the write's
        # staleness clock restarts, so it is no longer judgeable.
        env.log_fault("heal_everything")
        assert check_bounded_staleness(history, env, **self.GOSSIP).ok

    def test_lose_state_exemption(self):
        """A write acked by a replica that later lost volatile state is
        indeterminate — exempted exactly like the cart checker does."""
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        history = History()
        op = self.acked_put(env, history, "k", SetUnion({"v"}))
        env.lose_state_events.append((op.invoked_at + 1.0,
                                      op.info["replica"]))
        self.settle_past_bound(env)
        for replica in env.kvs.replicas_for("k"):
            replica.store.pop("k", None)
        assert check_bounded_staleness(history, env, **self.GOSSIP).ok

    def test_unacked_writes_are_indeterminate(self):
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        history = History()
        history.invoke("c1", "put", "k", SetUnion({"v"}), at=1.0)  # never acked
        self.settle_past_bound(env)
        assert check_bounded_staleness(history, env, **self.GOSSIP).ok

    def test_bound_scales_with_drift_and_transmission(self):
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        tight = staleness_bound(env, **self.GOSSIP)
        env.max_timer_drift = 2.0
        drifted = staleness_bound(env, **self.GOSSIP)
        assert drifted > tight
        env.network.max_transmission_delay = 25.0
        # Every leg of the exchange pays the transmission term: the digest
        # recursion's PROBE_ROUNDS (= 6) round trips plus the repair
        # one-way (13 legs), plus the final round-trip delivery leg — 15
        # legs in all (see staleness_bound's derivation).
        legs = 2 * PROBE_ROUNDS + 1 + 2
        assert staleness_bound(env, **self.GOSSIP) == pytest.approx(
            drifted + legs * 25.0)

    def test_gossipless_cluster_is_not_judged(self):
        env = env_with(gossip_interval=5.0, full_sync_every=2)
        history = History()
        self.acked_put(env, history, "k", SetUnion({"v"}))
        result = check_bounded_staleness(history, env, full_sync_every=2,
                                         gossip_interval=None)
        assert result.ok


class TestGossipByteBudgetChecker:
    def test_converged_cluster_passes(self):
        env = env_with()
        for i in range(12):
            env.kvs.put(f"k-{i}", SetUnion({i}))
        env.kvs.settle(400.0)
        assert check_gossip_byte_budget(env).ok

    def test_survives_partition_storm(self):
        """Retransmissions during a storm stay O(Δ) and every watermark
        drains after the heal — the roadmap's storm-time byte budget."""
        from repro.chaos import Nemesis, PartitionStorm

        env = env_with()
        Nemesis(env, [PartitionStorm(at=10.0, duration=80.0, waves=2,
                                     gap=10.0)]).start()
        for i in range(12):
            env.kvs.put(f"k-{i}", SetUnion({i}))
        env.simulator.run(until=200.0)
        env.heal_everything()
        env.kvs.settle(400.0)
        result = check_gossip_byte_budget(env)
        assert result.ok, result.failures

    def test_flags_delta_rounds_exceeding_dirty_marks(self):
        """The O(Δ) ledger: fresh entries shipped beyond what was stamped
        means a window is smuggling extra store state."""
        env = env_with()
        env.kvs.put("k", SetUnion({1}))
        env.kvs.settle(100.0)
        env.network.metrics.increment("kvs.gossip.fresh_entries", 10_000)
        result = check_gossip_byte_budget(env)
        assert any("O(\u0394) violated" in f or "violated" in f
                   for f in result.failures)

    def test_flags_repair_beyond_divergence(self):
        """Every replica is held to the budget: repair that ships a whole
        converged store (a full-store round) is flagged, not exempted."""
        env = env_with(seed=2)
        env.kvs.put("k", SetUnion({1}))
        env.kvs.settle(100.0)
        env.network.metrics.increment("kvs.antientropy.repair_entries",
                                      10_000)
        result = check_gossip_byte_budget(env)
        assert any("O(divergence) violated" in f for f in result.failures)

    def test_flags_stale_undrained_backlog(self):
        env = env_with()
        replica, peer = env.kvs.shards[0][:2]
        replica.merge_local("k", SetUnion({1}))
        replica._gossip_tick()  # shipped; the ack has not come back
        result = check_gossip_byte_budget(env)
        assert any("never drained" in f and replica.node_id in f
                   for f in result.failures)
        env.kvs.settle(50.0)  # the ack lands: confirmed meets shipped
        assert check_gossip_byte_budget(env).ok
        # A window still held ahead of a gap nobody filled is flagged too.
        peer._sync[replica.node_id].ahead[5] = 6
        result = check_gossip_byte_budget(env)
        assert any("never drained" in f and peer.node_id in f
                   for f in result.failures)
