"""Unit tests for the chaos environment and fault primitives."""

import json

import pytest

from repro.chaos import (
    ChaosConfig,
    ClockSkew,
    Congestion,
    CrashReplica,
    DomainOutage,
    DropSpike,
    History,
    LatencySpike,
    Nemesis,
    PartitionStorm,
    RecordingKVSClient,
    ReshardUnderFire,
    SlowNode,
    build_env,
    schedule_from_dicts,
    schedule_to_dicts,
    standard_schedule,
)
from repro.chaos.nemesis import FAULT_KINDS
from repro.cluster import TRANSPORT_MAILBOX
from repro.lattices import SetUnion


def build(seed=1, **overrides):
    import dataclasses
    config = dataclasses.replace(ChaosConfig(), **overrides)
    return build_env(seed, config), config


def assert_pristine(env):
    """Nothing a fault can degrade is degraded — without ``heal_everything``."""
    network = env.network
    assert network.config == ChaosConfig().network_config()  # never written
    assert network._degradations == []
    assert network.delay_factor == 1.0
    assert network.drop_rate == network.config.drop_rate
    assert network._partitions == []
    assert network.slowed_nodes() == {}
    assert network.bandwidth_squeeze == 1.0
    nodes = ([env.crashable[node_id] for node_id in env.crashable_ids()]
             + [env.clients[node_id] for node_id in env.client_ids()])
    assert all(node.alive for node in nodes)
    assert all(node.timer_drift == pytest.approx(1.0) for node in nodes)
    assert all(node.clock_offset == pytest.approx(0.0) for node in nodes)


class TestOneDriverRetiresEveryFault:
    """What a lint rule used to guess from method names, checked as
    behaviour: ``Fault.inject`` is the only scheduler, and it retires what
    it applies."""

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_armed_alone_it_restores_to_pristine_by_itself(self, kind):
        cls = FAULT_KINDS[kind]
        assert "inject" not in vars(cls) and "window" not in vars(cls)
        env, _ = build()
        env.register_clients([RecordingKVSClient(
            "kv-client-under-test", env.simulator, env.network, env.kvs,
            History())])
        fault = cls(at=5.0)
        Nemesis(env, [fault]).start()
        env.simulator.run(until=fault.window()[1] + 1.0)
        assert env.fault_log, "the fault found no target: the test is vacuous"
        assert_pristine(env)
        # Only a clock skew and a reshard leave no footprint to localize.
        assert bool(env.ground_truth) == (
            kind not in ("ClockSkew", "ReshardUnderFire"))
        for entry in env.ground_truth:
            assert entry["kind"] == kind
            assert entry["end"] - entry["start"] == fault.span

    def test_overlapping_same_factor_spikes_each_retire_their_own(self):
        env, _ = build()
        schedule = [LatencySpike(at=10.0, duration=40.0, factor=6.0),
                    LatencySpike(at=20.0, duration=10.0, factor=6.0)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=35.0)  # the inner spike is over, the outer not
        assert env.network.delay_factor == 6.0
        env.simulator.run(until=51.0)
        assert_pristine(env)
        assert [text for _, text in env.fault_log] == [
            "latency x6.0", "latency x6.0",
            "latency restored", "latency restored"]
        assert [(e["start"], e["end"]) for e in env.ground_truth] == [
            (10.0, 50.0), (20.0, 30.0)]

    @staticmethod
    def in_force(env, kind):
        """What ``kind``'s default fault degrades, read off the live system."""
        network = env.network
        return {
            "LatencySpike": lambda: network.delay_factor,
            "DropSpike": lambda: network.drop_rate,
            "Congestion": lambda: network.bandwidth_squeeze,
            "SlowNode": lambda: network.node_delay_factor(
                env.partitionable_ids()[0]),
            "ClockSkew": lambda: env.crashable[
                env.crashable_ids()[0]].timer_drift,
        }[kind]()

    @pytest.mark.parametrize("kind, degraded", [
        ("LatencySpike", 6.0), ("DropSpike", 0.4), ("Congestion", 8.0),
        ("SlowNode", 4.0), ("ClockSkew", 1.25)])
    def test_window_outliving_a_heal_never_retires_an_equal_valued_successor(
            self, kind, degraded):
        """Retire-by-value after a heal: fault A (10→50) is cleared by a
        mid-run ``heal_everything`` at 30; an equal-valued B arms at 35.
        A's stale retirement at 50 must find nothing to do — not raise
        (``list.remove`` of a value the heal already dropped), and not
        retire B, whose recorded footprint says 35→75."""
        env, _ = build()
        cls = FAULT_KINDS[kind]
        pristine = self.in_force(env, kind)
        Nemesis(env, [cls(at=10.0, duration=40.0),
                      cls(at=35.0, duration=40.0)]).start()
        env.simulator.schedule_at(30.0, env.heal_everything,
                                  label="mid-run heal")
        for until, expected in ((29.0, degraded), (31.0, pristine),
                                (36.0, degraded), (51.0, degraded),
                                (76.0, pristine)):
            env.simulator.run(until=until)
            assert self.in_force(env, kind) == pytest.approx(expected), until
        assert_pristine(env)
        times, texts = zip(*env.fault_log)
        assert times == (10.0, 30.0, 35.0, 50.0, 75.0)
        assert texts[1] == "heal_everything"
        assert texts[0] == texts[2] and texts[3] == texts[4] != texts[0]
        assert [(e["start"], e["end"]) for e in env.ground_truth] == (
            [] if kind == "ClockSkew" else [(10.0, 50.0), (35.0, 75.0)])

    def test_crash_whose_node_is_resharded_away_retires_silently(self):
        env, _ = build(shards=3)
        victim = sorted((n.node_id for n in env.kvs.all_nodes()), key=str)[5]
        schedule = [CrashReplica(at=5.0, index=5, downtime=30.0),
                    ReshardUnderFire(at=10.0, new_shard_count=1)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=40.0)
        assert victim not in env.crashable
        assert_pristine(env)
        # The retirement ran and found its target gone: nothing logged.
        assert not any(text.startswith("recover")
                       for _, text in env.fault_log)
        assert env.ground_truth == [{"kind": "CrashReplica",
                                     "subject": ("node", victim),
                                     "start": 5.0, "end": 35.0}]


class TestPartitionStorm:
    def test_installs_then_heals(self):
        env, _ = build()
        storm = PartitionStorm(at=10.0, duration=20.0, waves=2, gap=5.0)
        Nemesis(env, [storm]).start()
        env.simulator.run(until=15.0)
        assert len(env.network._partitions) == 1
        env.simulator.run(until=31.0)
        assert env.network._partitions == []
        env.simulator.run(until=40.0)
        assert len(env.network._partitions) == 1  # second wave
        env.simulator.run(until=60.0)
        assert env.network._partitions == []

    def test_waves_cut_along_different_stripes(self):
        env, _ = build()
        storm = PartitionStorm(at=5.0, duration=10.0, waves=2, gap=5.0)
        Nemesis(env, [storm]).start()
        env.simulator.run(until=6.0)
        first = env.network._partitions[0].group_a
        env.simulator.run(until=21.0)
        second = env.network._partitions[0].group_a
        assert first != second

    def test_storm_blocks_replica_traffic(self):
        env, _ = build()
        replicas = env.kvs.shards[0]
        storm = PartitionStorm(at=1.0, duration=500.0)
        Nemesis(env, [storm]).start()
        env.simulator.run(until=5.0)
        # The stripe split puts adjacent sorted ids on opposite sides.
        assert not env.network.is_reachable(replicas[0].node_id,
                                            replicas[1].node_id)


class TestPartitionStormFlavors:
    def wave_partition(self, flavor, seed=1, until=6.0):
        env, _ = build(seed)
        storm = PartitionStorm(at=5.0, duration=20.0, flavor=flavor)
        Nemesis(env, [storm]).start()
        env.simulator.run(until=until)
        (partition,) = env.network._partitions
        return env, partition

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError):
            PartitionStorm(at=1.0, flavor="diagonal")

    def test_asymmetric_flavor_cuts_one_direction_only(self):
        env, partition = self.wave_partition("asymmetric")
        assert partition.oneway
        a_side = sorted(partition.group_a, key=str)[0]
        b_side = sorted(partition.group_b, key=str)[0]
        assert not env.network.is_reachable(a_side, b_side)
        assert env.network.is_reachable(b_side, a_side)

    def test_bridge_flavor_keeps_one_node_connected_to_both_sides(self):
        env, partition = self.wave_partition("bridge")
        bridge = partition.group_a & partition.group_b
        assert len(bridge) == 1
        (bridge_id,) = bridge
        pure_a = sorted(partition.group_a - bridge, key=str)[0]
        pure_b = sorted(partition.group_b - bridge, key=str)[0]
        assert not env.network.is_reachable(pure_a, pure_b)
        assert env.network.is_reachable(pure_a, bridge_id)
        assert env.network.is_reachable(bridge_id, pure_b)
        assert env.network.is_reachable(pure_b, bridge_id)

    def test_striped_flavor_unchanged_and_symmetric(self):
        env, partition = self.wave_partition("striped")
        assert not partition.oneway
        assert not (partition.group_a & partition.group_b)

    def test_flavored_waves_heal_and_reheal_idempotently(self):
        """Every flavor's wave heals on schedule; re-healing the same
        handle (heal_everything after the wave healed itself) is a no-op
        and leaves the fabric fully connected."""
        for flavor in ("striped", "asymmetric", "bridge"):
            env, _ = build()
            storm = PartitionStorm(at=5.0, duration=10.0, waves=2, gap=5.0,
                                   flavor=flavor)
            Nemesis(env, [storm]).start()
            env.simulator.run(until=40.0)
            assert env.network._partitions == []
            env.heal_everything()
            ids = env.partitionable_ids()
            assert all(env.network.is_reachable(x, y)
                       for x in ids for y in ids), flavor

    def test_flavored_storms_are_trace_deterministic(self):
        """Same seed + same flavored schedule => byte-identical event
        traces — group and bridge picks derive from sorted ids only."""
        from repro.chaos import fast_config, run_scenario, state_digest

        def digest(flavor):
            schedule = [PartitionStorm(at=20.0, duration=30.0, waves=2,
                                       gap=10.0, flavor=flavor)]
            result = run_scenario(7, schedule, config=fast_config(),
                                  trace=True)
            trace = "\n".join(f"{t:.9f} {label}"
                              for t, label in result.env.simulator.trace)
            return trace + "\n" + state_digest(result.env)

        for flavor in ("asymmetric", "bridge"):
            assert digest(flavor) == digest(flavor), flavor

    def test_bridge_rotates_across_waves(self):
        env, _ = build()
        storm = PartitionStorm(at=5.0, duration=10.0, waves=2, gap=5.0,
                               flavor="bridge")
        Nemesis(env, [storm]).start()
        env.simulator.run(until=6.0)
        (first,) = env.network._partitions
        first_bridge = first.group_a & first.group_b
        env.simulator.run(until=21.0)
        (second,) = env.network._partitions
        assert (second.group_a & second.group_b) != first_bridge


class TestCongestion:
    def build_priced(self, seed=1, bandwidth=1000.0):
        env, config = build(seed, link_bandwidth=bandwidth)
        return env, config

    def test_squeezes_bandwidth_then_restores(self):
        env, _ = self.build_priced()
        Nemesis(env, [Congestion(at=5.0, duration=10.0, factor=8.0)]).start()
        replicas = env.kvs.shards[0]
        link = (replicas[0].node_id, replicas[1].node_id)
        env.simulator.run(until=7.0)
        assert env.network.effective_bandwidth(*link) == pytest.approx(125.0)
        env.simulator.run(until=20.0)
        assert env.network.effective_bandwidth(*link) == pytest.approx(1000.0)

    def test_overlapping_congestions_compose_and_fully_restore(self):
        env, _ = self.build_priced()
        schedule = [Congestion(at=10.0, duration=40.0, factor=4.0),
                    Congestion(at=30.0, duration=40.0, factor=4.0)]
        Nemesis(env, schedule).start()
        link = tuple(r.node_id for r in env.kvs.shards[0][:2])
        env.simulator.run(until=35.0)
        assert env.network.effective_bandwidth(*link) == pytest.approx(1000.0 / 16)
        env.simulator.run(until=55.0)
        assert env.network.effective_bandwidth(*link) == pytest.approx(1000.0 / 4)
        env.simulator.run(until=80.0)
        assert env.network.effective_bandwidth(*link) == pytest.approx(1000.0)

    def test_congestion_actually_delays_large_envelopes(self):
        env, _ = self.build_priced(bandwidth=200.0)
        replicas = env.kvs.shards[0]
        sender, receiver = replicas[0], replicas[1]
        arrivals = []
        receiver.on("probe", lambda msg: arrivals.append(env.simulator.now))
        Nemesis(env, [Congestion(at=0.0, duration=100.0, factor=10.0)]).start()
        env.simulator.run(until=1.0)
        start = env.simulator.now
        sender.queue(receiver.node_id, "probe", "x", entries=10)
        env.simulator.run(until=start + 200.0)
        # wire_size(10)=984 B at 20 B/tick -> ~49 ticks serialization.
        assert arrivals and arrivals[0] - start >= 40.0

    def test_slow_node_composes_multiplicatively_with_congestion(self):
        env, _ = self.build_priced(bandwidth=200.0)
        replicas = env.kvs.shards[0]
        sender, receiver = replicas[0], replicas[1]
        env.network.degrade(squeeze=5.0)
        env.network.degrade(delay_factor=3.0, node=receiver.node_id)
        probe = env.network.send(  # repro-lint: disable=RL002 -- raw probe: this test measures the link model itself
            sender.node_id, receiver.node_id, TRANSPORT_MAILBOX, (),
            size_bytes=400)
        queue_wait, serialization, nic_wait = probe.transmission
        # 400 B at (200/5) B/tick, times the endpoint factor 3.
        assert serialization == pytest.approx(400 / 40.0 * 3.0)

    def test_stale_restore_never_unsqueezes_a_later_same_factor_fault(self):
        """Squeezes retire by handle identity, like partition heals.

        Regression for the retire-by-value bug: two Congestion faults with
        the *same factor*, the first cleared early by ``heal_everything``.
        When the first window's restore timer still fires, a value-based
        ``list.remove`` would retire the *second* fault's squeeze (same
        factor, different fault) and un-throttle the fabric mid-window.
        """
        env, _ = self.build_priced()
        schedule = [Congestion(at=10.0, duration=20.0, factor=4.0),
                    Congestion(at=25.0, duration=30.0, factor=4.0)]
        Nemesis(env, schedule).start()
        env.simulator.schedule(20.0, env.heal_everything,
                               label="operator clears all faults")
        # t=30: the first fault's restore fires against its already-cleared
        # handle; the second fault (installed at 25) must stay active.
        env.simulator.run(until=35.0)
        assert env.network.bandwidth_squeeze == pytest.approx(4.0)
        env.simulator.run(until=60.0)  # second window expired at 55
        assert env.network.bandwidth_squeeze == pytest.approx(1.0)

    def test_restore_is_idempotent_and_a_bare_factor_is_rejected(self):
        env, _ = self.build_priced()
        handle = env.network.degrade(squeeze=3.0)
        env.network.restore(handle)
        env.network.restore(handle)  # stale second restore: no-op
        assert env.network.bandwidth_squeeze == pytest.approx(1.0)
        env.network.degrade(squeeze=5.0)
        with pytest.raises(TypeError):
            env.network.restore(5.0)  # pre-handle convention
        assert env.network.bandwidth_squeeze == pytest.approx(5.0)

    def test_heal_everything_clears_squeezes(self):
        env, _ = self.build_priced()
        Nemesis(env, [Congestion(at=1.0, duration=900.0, factor=16.0)]).start()
        env.simulator.run(until=5.0)
        assert env.network.bandwidth_squeeze == pytest.approx(16.0)
        env.heal_everything()
        assert env.network.bandwidth_squeeze == pytest.approx(1.0)

    def test_noop_without_a_bandwidth_model(self):
        env, _ = build(link_bandwidth=None)
        Nemesis(env, [Congestion(at=1.0, duration=20.0, factor=8.0)]).start()
        replicas = env.kvs.shards[0]
        arrivals = []
        replicas[1].on("probe", lambda msg: arrivals.append(env.simulator.now))
        env.simulator.run(until=5.0)
        start = env.simulator.now
        replicas[0].queue(replicas[1].node_id, "probe", "x", entries=100)
        env.simulator.run(until=start + 50.0)
        # Unpriced bytes take no time: only base delay + jitter.
        assert arrivals and arrivals[0] - start <= 1.5


class TestCrashReplica:
    def test_lose_state_crash_recovers_and_is_logged(self):
        env, config = build()
        target = sorted((n.node_id for n in env.kvs.all_nodes()), key=str)[1]
        fault = CrashReplica(at=5.0, index=1, downtime=30.0, lose_state=True)
        Nemesis(env, [fault]).start()
        env.simulator.run(until=10.0)
        assert not env.crashable[target].alive
        env.simulator.run(until=40.0)
        assert env.crashable[target].alive
        assert env.lose_state_events == [(35.0, target)]

    def test_lose_state_ignored_outside_kvs_pool(self):
        """Acceptor promises model durable state; fail-recover keeps them."""
        from repro.chaos.history import History
        from repro.chaos.workloads import PaxosWorkload

        env, _ = build()
        workload = PaxosWorkload(env, History(), replicas=3)
        replica = workload.log.replicas["chaos-paxos-0"]
        replica.promised_ballot = (7, "chaos-paxos-0")
        index = env.crashable_ids().index("chaos-paxos-0")
        fault = CrashReplica(at=1.0, index=index, downtime=5.0,
                             lose_state=True, pool="all")
        Nemesis(env, [fault]).start()
        env.simulator.run(until=10.0)
        assert replica.alive
        assert replica.promised_ballot == (7, "chaos-paxos-0")
        assert env.lose_state_events == []

    def test_recovery_skipped_for_replica_retired_by_reshard(self):
        env, _ = build(shards=3)
        # Crash a replica of shard 2, then shrink to 1 shard while it is
        # down: the retired node must not be recovered into a ghost.
        schedule = [CrashReplica(at=5.0, index=5, downtime=30.0),
                    ReshardUnderFire(at=10.0, new_shard_count=1)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=60.0)
        assert len(env.kvs.shards) == 1
        live_ids = {node.node_id for node in env.kvs.all_nodes()}
        assert set(env.crashable) >= live_ids


class TestSpikes:
    def test_latency_spike_restores_and_tracks_max(self):
        env, config = build()
        pristine = config.network_config()
        Nemesis(env, [LatencySpike(at=5.0, duration=10.0, factor=4.0)]).start()
        env.simulator.run(until=7.0)
        assert env.network.delay_factor == 4.0
        env.simulator.run(until=20.0)
        assert env.network.delay_factor == 1.0
        assert env.network.max_link_delay == pytest.approx(
            (pristine.base_delay + pristine.jitter) * 4)

    def test_drop_spike_restores(self):
        env, config = build()
        Nemesis(env, [DropSpike(at=5.0, duration=10.0, drop_rate=0.9)]).start()
        env.simulator.run(until=7.0)
        assert env.network.drop_rate == 0.9
        env.simulator.run(until=20.0)
        assert env.network.drop_rate == config.network_config().drop_rate

    def test_overlapping_latency_spikes_compose_and_fully_restore(self):
        """A spike's restore must not re-impose another spike's degraded
        values: effective delay is refolded from config + active handles."""
        env, config = build()
        schedule = [LatencySpike(at=10.0, duration=40.0, factor=6.0),
                    LatencySpike(at=30.0, duration=40.0, factor=6.0)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=35.0)  # both active: factors multiply
        assert env.network.delay_factor == 36.0
        env.simulator.run(until=55.0)  # first ended, second still active
        assert env.network.delay_factor == 6.0
        env.simulator.run(until=80.0)  # both ended: pristine again
        assert env.network.delay_factor == 1.0
        assert env.network.config == config.network_config()

    def test_overlapping_drop_spikes_take_max_and_fully_restore(self):
        env, config = build()
        schedule = [DropSpike(at=10.0, duration=40.0, drop_rate=0.3),
                    DropSpike(at=30.0, duration=40.0, drop_rate=0.6)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=35.0)
        assert env.network.drop_rate == 0.6
        env.simulator.run(until=55.0)
        assert env.network.drop_rate == 0.6  # 0.3-spike gone, max holds
        env.simulator.run(until=80.0)
        assert env.network.drop_rate == config.network_config().drop_rate


class TestSlowNode:
    def target_of(self, env, index=0):
        ids = env.partitionable_ids()
        return ids[index % len(ids)]

    def test_slows_only_links_touching_the_target(self):
        env, config = build()
        target = self.target_of(env, index=2)
        Nemesis(env, [SlowNode(at=5.0, index=2, duration=10.0, factor=4.0)]).start()
        env.simulator.run(until=7.0)
        assert env.network.node_delay_factor(target) == pytest.approx(4.0)
        others = [n for n in env.partitionable_ids() if n != target]
        assert all(env.network.node_delay_factor(n) == 1.0 for n in others)
        # The fabric-wide factor is untouched — this is a gray failure.
        assert env.network.delay_factor == 1.0
        env.simulator.run(until=20.0)
        assert env.network.node_delay_factor(target) == 1.0

    def test_raises_calm_bound_via_max_link_delay(self):
        env, config = build()
        pristine = env.network.max_link_delay
        Nemesis(env, [SlowNode(at=5.0, index=0, duration=10.0, factor=4.0)]).start()
        env.simulator.run(until=7.0)
        assert env.network.max_link_delay == pytest.approx(pristine * 4)

    def test_overlapping_slowdowns_compose_and_fully_restore(self):
        env, _ = build()
        target = self.target_of(env, index=0)
        schedule = [SlowNode(at=5.0, index=0, duration=30.0, factor=2.0),
                    SlowNode(at=10.0, index=0, duration=10.0, factor=3.0)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=12.0)
        assert env.network.node_delay_factor(target) == pytest.approx(6.0)
        env.simulator.run(until=25.0)
        assert env.network.node_delay_factor(target) == pytest.approx(2.0)
        env.simulator.run(until=40.0)
        assert env.network.node_delay_factor(target) == 1.0

    def test_worst_pair_of_slow_nodes_drives_the_bound(self):
        """Both endpoints slowed: their factors multiply on the shared link."""
        env, config = build()
        pristine = env.network.max_link_delay
        schedule = [SlowNode(at=5.0, index=0, duration=20.0, factor=2.0),
                    SlowNode(at=5.0, index=1, duration=20.0, factor=3.0)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=7.0)
        assert env.network.max_link_delay == pytest.approx(pristine * 6)

    def test_slowed_link_actually_delays_delivery(self):
        env, _ = build()
        replicas = env.kvs.shards[0]
        sender, receiver = replicas[0], replicas[1]
        env.network.degrade(delay_factor=50.0, node=receiver.node_id)
        arrived = []
        receiver.on("probe", lambda msg: arrived.append(env.simulator.now))
        start = env.simulator.now
        sender.queue(receiver.node_id, "probe", "x")
        env.simulator.run(until=start + 200.0)
        # base_delay 1.0 x factor 50 — far beyond the pristine worst case.
        assert arrived and arrived[0] - start >= 50.0


class TestClockSkew:
    def target_node(self, env, index=0):
        ids = env.crashable_ids()
        return env.crashable[ids[index % len(ids)]]

    def test_skews_clock_and_timers_then_restores(self):
        env, _ = build()
        node = self.target_node(env, index=1)
        fault = ClockSkew(at=5.0, index=1, duration=20.0, offset=15.0, drift=1.5)
        Nemesis(env, [fault]).start()
        env.simulator.run(until=7.0)
        assert node.clock_offset == pytest.approx(15.0)
        assert node.timer_drift == pytest.approx(1.5)
        assert node.clock() == pytest.approx(env.simulator.now + 15.0)
        assert env.max_timer_drift == pytest.approx(1.5)
        env.simulator.run(until=30.0)
        assert node.clock_offset == pytest.approx(0.0)
        assert node.timer_drift == pytest.approx(1.0)

    def test_drift_stretches_armed_timers(self):
        env, _ = build()
        node = self.target_node(env)
        env.apply_clock_skew(node, offset=0.0, drift=2.0)
        fired = []
        at = env.simulator.now
        node.set_timer(10.0, lambda: fired.append(env.simulator.now))
        env.simulator.run(until=at + 15.0)
        assert fired == []  # a 10-unit timer on a 2x-slow clock fires at 20
        env.simulator.run(until=at + 25.0)
        assert fired and fired[0] == pytest.approx(at + 20.0)

    def test_overlapping_skews_compose_and_restore(self):
        env, _ = build()
        node = self.target_node(env)
        schedule = [ClockSkew(at=5.0, index=0, duration=30.0, offset=10.0, drift=2.0),
                    ClockSkew(at=10.0, index=0, duration=10.0, offset=-4.0, drift=1.5)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=12.0)
        assert node.clock_offset == pytest.approx(6.0)
        assert node.timer_drift == pytest.approx(3.0)
        env.simulator.run(until=25.0)
        assert node.clock_offset == pytest.approx(10.0)
        assert node.timer_drift == pytest.approx(2.0)
        env.simulator.run(until=40.0)
        assert node.clock_offset == pytest.approx(0.0)
        assert node.timer_drift == pytest.approx(1.0)

    def test_restore_skipped_for_node_retired_by_reshard(self):
        env, _ = build(shards=2, replication=1)
        # Skew a shard-1 replica, then retire the whole shard mid-window.
        retired = list(env.kvs.shards[1])
        index = env.crashable_ids().index(retired[0].node_id)
        schedule = [ClockSkew(at=5.0, index=index, duration=40.0,
                              offset=9.0, drift=2.0),
                    ReshardUnderFire(at=10.0, new_shard_count=1)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=60.0)
        # The retired node keeps its (now inert) skew; nothing crashes.
        assert retired[0].clock_offset == pytest.approx(9.0)

    def test_heal_everything_unwinds_active_skews_and_slowdowns(self):
        env, config = build()
        node = self.target_node(env, index=1)
        schedule = [ClockSkew(at=2.0, index=1, duration=900.0,
                              offset=25.0, drift=1.5),
                    SlowNode(at=2.0, index=0, duration=900.0, factor=8.0)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=10.0)
        assert node.timer_drift != 1.0
        env.heal_everything()
        assert node.clock_offset == pytest.approx(0.0)
        assert node.timer_drift == pytest.approx(1.0)
        assert all(env.network.node_delay_factor(n) == 1.0
                   for n in env.partitionable_ids())


class TestReshardUnderFire:
    def test_reshard_fires_and_refreshes_crashable(self):
        env, _ = build()
        for i in range(20):
            env.kvs.put(f"k-{i}", SetUnion({i}))
        Nemesis(env, [ReshardUnderFire(at=5.0, new_shard_count=4)]).start()
        env.simulator.run(until=10.0)
        assert env.kvs.shard_count == 4
        assert set(env.crashable) == {
            node.node_id for node in env.kvs.all_nodes()}


class TestDomainOutage:
    def test_outage_is_down_when_it_fires(self):
        """Once ``apply`` returns, every crashable node of the zone is down
        and no other node is: the outage crashes at fire time, not in
        same-instant events scheduled behind it."""
        env, _ = build(replication=2)
        members = {node.node_id for node in env.kvs.all_nodes()
                   if node.domain == "az-1"}
        assert members
        applied = DomainOutage(at=0.0, domain="az-1").apply(env, 0)
        assert {node.node_id for node in env.kvs.all_nodes()
                if not node.alive} == members
        # One log line for the zone, one footprint per member.
        assert {item.subject for item in applied[1:]} == {
            ("node", node_id) for node_id in members}

    def test_outage_crashes_whole_domain_then_recovers(self):
        env, _ = build(replication=2)
        az1 = [node for node in env.kvs.all_nodes() if node.domain == "az-1"]
        assert az1
        Nemesis(env, [DomainOutage(at=5.0, domain="az-1", downtime=20.0)]).start()
        env.simulator.run(until=10.0)
        assert all(not node.alive for node in az1)
        az0 = [node for node in env.kvs.all_nodes() if node.domain == "az-0"]
        assert all(node.alive for node in az0)
        env.simulator.run(until=30.0)
        assert all(node.alive for node in az1)

    def test_outage_recovery_skips_replicas_retired_by_reshard(self):
        """A reshard retiring a shard while its AZ is down must win: the
        retired replicas stay crashed instead of resurrecting as ghosts
        gossiping at their likewise-retired peers forever."""
        env, _ = build(shards=2, replication=1)
        retired_nodes = list(env.kvs.shards[1])
        schedule = [DomainOutage(at=20.0, domain="az-0", downtime=60.0),
                    ReshardUnderFire(at=40.0, new_shard_count=1)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=100.0)
        assert len(env.kvs.shards) == 1
        # The surviving shard's replica (also az-0) recovered on schedule...
        assert all(node.alive for node in env.kvs.all_nodes())
        # ...but the retired ones stayed down, with no gossip timer re-armed.
        assert all(not node.alive for node in retired_nodes)


STANDARD_REPRS = [
    "PartitionStorm(at=20.0, duration=40.0, waves=2, gap=15.0, pivot=0, "
    "flavor='striped')",
    "DropSpike(at=30.0, duration=50.0, drop_rate=0.25)",
    "CrashReplica(at=45.0, index=1, downtime=70.0, lose_state=True, "
    "pool='kvs')",
    "SlowNode(at=42.0, index=5, duration=58.0, factor=4.0)",
    "CrashClient(at=55.0, index=1, downtime=50.0)",
    "ReshardUnderFire(at=60.0, new_shard_count=4)",
    "ClockSkew(at=65.0, index=1, duration=50.0, offset=20.0, drift=1.25)",
    "CrashReplica(at=75.0, index=0, downtime=40.0, lose_state=False, "
    "pool='all')",
    "DomainOutage(at=90.0, domain='az-1', downtime=50.0)",
    "Congestion(at=100.0, duration=45.0, factor=8.0)",
    "LatencySpike(at=110.0, duration=40.0, factor=6.0)",
]

STANDARD_JSON = (
    '[{"at": 20.0, "duration": 40.0, "waves": 2, "gap": 15.0, "pivot": 0, '
    '"flavor": "striped", "kind": "PartitionStorm"}, '
    '{"at": 30.0, "duration": 50.0, "drop_rate": 0.25, "kind": "DropSpike"}, '
    '{"at": 45.0, "index": 1, "downtime": 70.0, "lose_state": true, '
    '"pool": "kvs", "kind": "CrashReplica"}, '
    '{"at": 42.0, "index": 5, "duration": 58.0, "factor": 4.0, '
    '"kind": "SlowNode"}, '
    '{"at": 55.0, "index": 1, "downtime": 50.0, "kind": "CrashClient"}, '
    '{"at": 60.0, "new_shard_count": 4, "kind": "ReshardUnderFire"}, '
    '{"at": 65.0, "index": 1, "duration": 50.0, "offset": 20.0, '
    '"drift": 1.25, "kind": "ClockSkew"}, '
    '{"at": 75.0, "index": 0, "downtime": 40.0, "lose_state": false, '
    '"pool": "all", "kind": "CrashReplica"}, '
    '{"at": 90.0, "domain": "az-1", "downtime": 50.0, '
    '"kind": "DomainOutage"}, '
    '{"at": 100.0, "duration": 45.0, "factor": 8.0, "kind": "Congestion"}, '
    '{"at": 110.0, "duration": 40.0, "factor": 6.0, "kind": "LatencySpike"}]')


class TestScheduleSerialization:
    def test_round_trip_through_dicts(self):
        schedule = standard_schedule()
        assert schedule_from_dicts(schedule_to_dicts(schedule)) == schedule

    def test_reprs_are_copy_pasteable(self):
        import repro.chaos as chaos

        namespace = {name: getattr(chaos, name) for name in chaos.__all__}
        for fault in standard_schedule():
            assert eval(repr(fault), namespace) == fault

    def test_reprs_and_json_are_the_ones_old_artifacts_hold(self):
        """A ``CHAOS_failures.json`` written before faults became
        declarative still replays: field names, order and defaults are the
        schema."""
        schedule = standard_schedule()
        assert [repr(fault) for fault in schedule] == STANDARD_REPRS
        payload = json.dumps(schedule_to_dicts(schedule))
        assert payload == STANDARD_JSON
        assert schedule_from_dicts(json.loads(payload)) == schedule
        assert set(FAULT_KINDS) >= {type(fault).__name__
                                    for fault in schedule}

    def test_standard_schedule_covers_acceptance_matrix(self):
        schedule = standard_schedule()
        kinds = {type(fault).__name__ for fault in schedule}
        assert "PartitionStorm" in kinds
        assert "ReshardUnderFire" in kinds
        assert "SlowNode" in kinds
        assert "ClockSkew" in kinds
        assert any(isinstance(fault, CrashReplica) and fault.lose_state
                   for fault in schedule)

    def test_end_time_spans_longest_window(self):
        env, _ = build()
        nemesis = Nemesis(env, standard_schedule())
        assert nemesis.end_time() == max(
            fault.window()[1] for fault in standard_schedule())


class TestHealEverything:
    def test_restores_config_partitions_and_nodes(self):
        env, config = build()
        schedule = [PartitionStorm(at=1.0, duration=900.0),
                    DropSpike(at=1.0, duration=900.0, drop_rate=0.8),
                    CrashReplica(at=2.0, index=0, downtime=900.0)]
        Nemesis(env, schedule).start()
        env.simulator.run(until=10.0)
        assert env.network._partitions
        assert any(not node.alive for node in env.kvs.all_nodes())
        env.heal_everything()
        assert env.network._partitions == []
        assert env.network.drop_rate == config.network_config().drop_rate
        assert all(node.alive for node in env.kvs.all_nodes())
