"""Tests for the Anna-style lattice KVS and its client."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import Network, NetworkConfig, Simulator
from repro.cluster.transport import DEDUP_WINDOW
from repro.lattices import GCounter, LWWRegister, SetUnion
from repro.storage import KVSClient, LatticeKVS
from repro.storage import client as client_module


def build_kvs(shards=4, replication=2, seed=5):
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
    kvs = LatticeKVS(sim, net, shard_count=shards, replication_factor=replication,
                     gossip_interval=20.0)
    return sim, net, kvs


class TestLatticeKVS:
    def test_put_get_round_trip(self):
        sim, net, kvs = build_kvs()
        kvs.put("k", SetUnion({1}))
        kvs.settle()
        assert kvs.get_merged("k") == SetUnion({1})

    def test_puts_merge_rather_than_overwrite(self):
        sim, net, kvs = build_kvs()
        kvs.put("k", SetUnion({1}))
        kvs.put("k", SetUnion({2}))
        kvs.settle()
        assert kvs.get_merged("k") == SetUnion({1, 2})

    def test_replicas_converge_after_settle(self):
        sim, net, kvs = build_kvs(shards=2, replication=3)
        for i in range(20):
            kvs.put(f"key-{i}", GCounter().increment("client", i))
        kvs.settle()
        for i in range(20):
            replicas = kvs.replicas_for(f"key-{i}")
            values = [replica.value_of(f"key-{i}") for replica in replicas]
            assert all(value == values[0] for value in values)

    def test_keys_spread_across_shards(self):
        sim, net, kvs = build_kvs(shards=4, replication=1)
        for i in range(200):
            kvs.put(f"key-{i}", SetUnion({i}))
        kvs.settle()
        populated = [len(shard[0].store) for shard in kvs.shards]
        assert all(count > 0 for count in populated)
        assert sum(populated) == 200

    def test_concurrent_writers_converge_without_coordination(self):
        """Two writers updating the same key from different replicas converge."""
        sim, net, kvs = build_kvs(shards=1, replication=2)
        replica_a, replica_b = kvs.shards[0]
        replica_a.merge_local("cart", SetUnion({"apple"}))
        replica_b.merge_local("cart", SetUnion({"banana"}))
        # Gossip timers run on the simulator; settle to convergence.
        sim.run(until=100.0)
        assert replica_a.value_of("cart") == replica_b.value_of("cart") == SetUnion({"apple", "banana"})

    def test_a_lone_replica_has_no_peers_and_logs_nothing(self):
        sim, net, kvs = build_kvs(shards=2, replication=1)
        kvs.put("k", SetUnion({1}))
        sim.run(until=100.0)                    # several gossip ticks
        (replica,) = kvs.replicas_for("k")
        assert replica.peers == [] and replica._sync == {}
        assert replica.change_log.seq == 0 and replica.change_log.stamps == {}
        assert net.messages_sent == 0
        assert kvs.get("k") == SetUnion({1})

    def test_get_with_dead_replica_falls_back(self):
        sim, net, kvs = build_kvs(shards=1, replication=2)
        kvs.put("k", LWWRegister(1.0, "v"))
        kvs.settle()
        kvs.shards[0][0].crash()
        assert kvs.get("k") is not None

    def test_invalid_configuration_rejected(self):
        sim, net, _ = build_kvs()
        with pytest.raises(ValueError):
            LatticeKVS(sim, net, shard_count=0)

    def test_total_keys_counts_unconverged_replicas(self):
        """Regression: keys that only reached a non-first replica must count."""
        sim, net, kvs = build_kvs(shards=1, replication=3)
        # Merge directly into the *last* replica; no replication has run.
        kvs.shards[0][2].merge_local("only-here", SetUnion({1}))
        assert kvs.total_keys() == 1
        # Converged copies of the same key still count once.
        kvs.settle()
        assert kvs.total_keys() == 1

    def test_gossip_sends_snapshot_not_live_store(self):
        """Regression: an in-flight gossip window must not observe writes
        made after it was sent.  The payload aliases the stored value
        object, so the later local merge must rebind the entry to a new
        value rather than mutate that object."""
        sim, net, kvs = build_kvs(shards=1, replication=2, seed=11)
        replica_a, replica_b = kvs.shards[0]
        windows = []
        deliver = replica_b.handler_for("gossip")

        def recording(message):
            windows.append(dict(message.payload["entries"]))
            deliver(message)

        replica_b.on("gossip", recording)
        # Two merges, so the stored value is one the replica allocated.
        replica_a.merge_local("k", SetUnion({"before"}))
        replica_a.merge_local("k", SetUnion({"before", "also-before"}))
        # Fire a gossip round explicitly; the window is now in flight.
        replica_a._gossip_tick()
        # Grow the sender's entry after the send but before delivery; the
        # new change ships in a window of its own.
        replica_a.merge_local("k", SetUnion({"leaked"}))
        assert replica_a.value_of("k") == SetUnion({"before", "also-before", "leaked"})
        sim.run(until=sim.now + 10.0)
        assert windows == [{"k": SetUnion({"before", "also-before"})},
                           {"k": SetUnion({"before", "also-before", "leaked"})}]
        assert replica_b.value_of("k") == replica_a.value_of("k")


class TestWritesShareOneValue:
    def test_replicas_and_the_writers_session_hold_one_object_per_key(self):
        """A join returns the operand that already is the join, so a write
        that supersedes a key's value leaves every replica and the writing
        client's session table holding the written object itself: N keys
        are N objects, not one copy per holder.  Counts ids, reads no
        clock."""
        keys = [f"key-{index}" for index in range(40)]
        sim, net, kvs = build_kvs(shards=2, replication=3)
        for key in keys:
            kvs.put(key, LWWRegister(1.0, "old", "writer"))
        kvs.settle(100.0)
        client = KVSClient("client-1", sim, net, kvs)
        for key in keys:
            client.put(key, LWWRegister(1.5, "mid", "writer"))
            client.put(key, LWWRegister(2.0, "new", "writer"))
        kvs.settle(100.0)
        holders = {key: [replica.store[key] for replica in kvs.replicas_for(key)]
                   + [client.session_writes[key]] for key in keys}
        assert all(len(values) == 4 and values[0] == LWWRegister(2.0, "new", "writer")
                   for values in holders.values())
        assert all(len(set(map(id, values))) == 1 for values in holders.values())
        assert len({id(value) for values in holders.values()
                    for value in values}) == len(keys)


class TestResharding:
    def populate(self, kvs, count=200):
        for i in range(count):
            kvs.put(f"key-{i}", SetUnion({i}))
        kvs.settle()

    def test_grow_moves_minority_of_keys_and_converges(self):
        """Scale a live KVS 4 -> 8 shards; consistent hashing keeps most keys
        in place and every key remains readable after settle()."""
        sim, net, kvs = build_kvs(shards=4, replication=2)
        self.populate(kvs, 200)
        report = kvs.reshard(8)
        assert report.keys_total == 200
        assert report.moved_fraction < 0.6
        assert kvs.shard_count == 8 and len(kvs.shards) == 8
        kvs.settle()
        for i in range(200):
            assert kvs.get_merged(f"key-{i}") == SetUnion({i})
        # Moved keys actually live on their new home shard.
        populated = sum(
            1 for shard in kvs.shards
            if any(len(replica.store) for replica in shard)
        )
        assert populated == 8

    def test_grow_keeps_routing_consistent_with_storage(self):
        sim, net, kvs = build_kvs(shards=4, replication=1)
        self.populate(kvs, 100)
        kvs.reshard(8)
        kvs.settle()
        for i in range(100):
            key = f"key-{i}"
            shard = kvs.shard_for(key)
            assert kvs.shards[shard][0].value_of(key) == SetUnion({i})

    def test_shrink_drains_removed_shards(self):
        sim, net, kvs = build_kvs(shards=8, replication=2)
        self.populate(kvs, 150)
        report = kvs.reshard(4)
        kvs.settle()
        assert kvs.shard_count == 4 and len(kvs.shards) == 4
        assert report.keys_total == 150
        for i in range(150):
            assert kvs.get_merged(f"key-{i}") == SetUnion({i})

    def test_writes_after_reshard_route_to_new_shards(self):
        sim, net, kvs = build_kvs(shards=4, replication=2)
        self.populate(kvs, 50)
        kvs.reshard(8)
        kvs.put("key-3", SetUnion({"late"}))
        kvs.settle()
        merged = kvs.get_merged("key-3")
        assert 3 in merged.elements and "late" in merged.elements

    def test_inflight_put_during_reshard_is_forwarded_not_lost(self):
        """A put acked by the old owner shard after the key moved must be
        forwarded to the new owners, not stranded where reads never look."""
        sim, net, kvs = build_kvs(shards=4, replication=2)
        client = KVSClient("client-1", sim, net, kvs)
        ids = [client.put(f"key-{i}", SetUnion({i})) for i in range(30)]
        # Reshard while every put message is still in flight.
        kvs.reshard(8)
        kvs.settle()
        assert all(client.put_acknowledged(request_id) for request_id in ids)
        for i in range(30):
            merged = kvs.get_merged(f"key-{i}")
            assert merged is not None and i in merged.elements

    def test_migration_survives_total_message_loss(self):
        """The migrated value lands synchronously on one new-home replica,
        so even a network dropping every message cannot lose a key."""
        from repro.cluster import NetworkConfig, Simulator, Network

        sim = Simulator(seed=5)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
        kvs = LatticeKVS(sim, net, shard_count=4, replication_factor=1,
                         gossip_interval=20.0)
        for i in range(50):
            kvs.pick_replica(f"key-{i}").merge_local(f"key-{i}", SetUnion({i}))
        net.config.drop_rate = 1.0
        kvs.reshard(8)
        kvs.settle()
        for i in range(50):
            assert kvs.get_merged(f"key-{i}") == SetUnion({i})

    def test_stale_gossip_does_not_resurrect_moved_keys(self):
        """Gossip sent before the reshard must not re-create dropped copies
        on the old shard; the old shard forwards them to the new owners."""
        sim, net, kvs = build_kvs(shards=2, replication=2, seed=13)
        self.populate(kvs, 60)
        # Put every key in flight: one unstamped full-store parcel per peer,
        # the shape of a digest-repair parcel...
        for shard in kvs.shards:
            for replica in shard:
                for peer in replica.peers:
                    replica.queue(peer, "gossip",
                                  {"entries": dict(replica.store)},
                                  entries=len(replica.store))
                    replica.transport.flush(peer)
        # ...then move keys away and deliver the stale gossip.
        kvs.reshard(6)
        kvs.settle()
        for shard_index, shard in enumerate(kvs.shards):
            for replica in shard:
                for key in replica.store:
                    assert kvs.shard_for(key) == shard_index, (
                        f"{key!r} resurrected on shard {shard_index}"
                    )

    def test_every_replica_is_built_knowing_its_whole_group(self):
        """Membership is fixed at construction, for the first shards and for
        those a reshard builds alike; a crash and a state-losing recovery
        leave it as built."""
        sim, net, kvs = build_kvs(shards=2, replication=3)
        self.populate(kvs, 20)
        kvs.reshard(3)
        kvs.settle()                            # the moved keys reach every replica
        rebooted = kvs.shards[2][0]
        rebooted.crash()
        rebooted.recover(lose_state=True)
        kvs.settle()
        assert [[replica.node_id for replica in shard] for shard in kvs.shards] == [
            [f"kvs-g{shard}-s{shard}-r{index}" for index in range(3)]
            for shard in range(3)]
        for shard in kvs.shards:
            for replica in shard:
                others = [other.node_id for other in shard if other is not replica]
                assert replica.peers == others
                assert list(replica._sync) == others
        for i in range(20):
            assert kvs.get_merged(f"key-{i}") == SetUnion({i})

    def test_noop_and_invalid_reshard(self):
        sim, net, kvs = build_kvs(shards=4, replication=1)
        self.populate(kvs, 20)
        report = kvs.reshard(4)
        assert report.keys_moved == 0
        with pytest.raises(ValueError):
            kvs.reshard(0)


class TestRoutingDeterminism:
    def test_route_cache_does_not_conflate_equal_keys_across_types(self):
        """1, True and 1.0 compare equal but occupy distinct ring positions;
        a cache keyed by the raw key would make routing query-order
        dependent."""
        sim, net, kvs = build_kvs(shards=8, replication=1)
        for order in ([1, True, 1.0], [1.0, True, 1]):
            kvs._route_cache.clear()
            for key in order:
                assert kvs.shard_for(key) == kvs.ring.node_for(key)


    def test_shard_assignment_identical_across_hashseeds(self):
        """End-to-end: LatticeKVS places keys identically in two processes
        started with different PYTHONHASHSEED values."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        script = (
            "from repro.cluster import Network, NetworkConfig, Simulator\n"
            "from repro.storage import LatticeKVS\n"
            "sim = Simulator(seed=5)\n"
            "net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))\n"
            "kvs = LatticeKVS(sim, net, shard_count=8)\n"
            "print([kvs.shard_for(f'key-{i}') for i in range(300)])\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestKVSClient:
    def test_async_put_then_get(self):
        sim, net, kvs = build_kvs()
        client = KVSClient("client-1", sim, net, kvs)
        put_id = client.put("k", SetUnion({"x"}))
        sim.run(until=200.0)
        assert client.put_acknowledged(put_id)
        results = []
        client.get("k", callback=results.append)
        sim.run(until=400.0)
        assert results == [SetUnion({"x"})]

    def test_read_your_writes_before_replication(self):
        """The session cache merges the client's own writes into stale reads."""
        sim, net, kvs = build_kvs(shards=1, replication=2)
        client = KVSClient("client-1", sim, net, kvs)
        client.put("k", SetUnion({"mine"}))
        # Immediately read (the put may not have reached the replica served).
        results = []
        client.get("k", callback=results.append)
        sim.run(until=200.0)
        assert results and "mine" in results[0].elements

    def test_get_of_missing_key_returns_none(self):
        sim, net, kvs = build_kvs()
        client = KVSClient("client-1", sim, net, kvs)
        results = []
        client.get("missing", callback=results.append)
        sim.run(until=200.0)
        assert results == [None]

    def test_session_tables_keep_only_the_newest_dedup_window_completions(
            self, monkeypatch):
        """A long session must not hold one entry per op it ever issued:
        each table keeps the newest ``DEDUP_WINDOW`` completions, evicting
        the oldest *after* the insert so a subclass reading
        ``completed_gets[request_id]`` right after the reply handler (the
        bench and chaos clients do) always finds it."""
        sim, net, kvs = build_kvs(shards=1, replication=1)
        window = 8
        monkeypatch.setattr(client_module, "DEDUP_WINDOW", window)
        seen_at_reply = []

        class ReadingClient(KVSClient):
            def _on_get_reply(self, message):
                super()._on_get_reply(message)
                request_id = message.payload["request_id"]
                seen_at_reply.append(request_id in self.completed_gets)

        client = ReadingClient("client-1", sim, net, kvs)
        puts = [client.put(f"k{i}", SetUnion({i})) for i in range(20)]
        sim.run(until=100.0)
        gets = [client.get(f"k{i}") for i in range(20)]
        sim.run(until=200.0)
        assert seen_at_reply == [True] * 20
        assert len(client.acked_puts) == len(client.completed_gets) == window
        # Oldest first: the survivors are the last `window` completions.
        assert not client.put_acknowledged(puts[0])
        assert client.result_of(gets[0]) is None
        assert list(client.completed_gets)[-1] in gets
        assert sum(client.put_acknowledged(i) for i in puts) == window
        client.reset_state()
        assert client.completed_gets == {} and client.acked_puts == set()

    def test_completed_gets_hold_the_newest_window_after_three_windows(
            self, monkeypatch):
        """After 3 x ``DEDUP_WINDOW`` gets the table holds exactly the last
        window's results, oldest first, and its eviction order holds
        nothing else — no slot per get ever issued."""
        sim, net, kvs = build_kvs(shards=1, replication=1)
        window = 8
        monkeypatch.setattr(client_module, "DEDUP_WINDOW", window)
        client = KVSClient("client-1", sim, net, kvs)
        kvs.put("k", SetUnion({"v"}))
        gets = [client.get("k") for _ in range(3 * window)]
        sim.run(until=200.0)
        assert list(client.completed_gets) == gets[-window:]
        assert list(client._completed_order) == gets[-window:]
        assert all(client.result_of(g) == SetUnion({"v"}) for g in gets[-window:])
        assert all(client.result_of(g) is None for g in gets[:-window])

    def test_session_caches_grow_with_keys_touched_not_run_length(self):
        """2,000 mixed puts and gets over 20 keys: the session caches hold
        one value per key touched (live state), and the completion tables
        stay within the transport's ``DEDUP_WINDOW``."""
        sim, net, kvs = build_kvs(shards=2, replication=2)
        client = KVSClient("client-1", sim, net, kvs)
        for op in range(2000):
            key = f"k{op // 2 % 20}"  # a put, then a get, of each key
            if op % 2:
                client.get(key)
            else:
                client.put(key, LWWRegister(op, op))
            if op % 100 == 99:
                sim.run(until=sim.now + 50.0)
        sim.run(until=sim.now + 200.0)
        assert len(client.session_writes) == 20
        assert len(client.session_reads) <= 20
        assert len(client.completed_gets) <= DEDUP_WINDOW
        assert len(client.acked_puts) <= DEDUP_WINDOW
        # Every op completed: none is pending, none timed out.
        assert client.transport.pending_requests == 0
        assert net.metrics.counter("transport.rpc_timeouts") == 0

    def test_get_abandoned_by_its_rpc_releases_the_callback_uncalled(self):
        """A get whose every attempt times out leaves nothing behind, and
        its callback is not told "absent" — no answer is not a miss."""
        sim, net, kvs = build_kvs(shards=1, replication=1)
        client = KVSClient("client-1", sim, net, kvs)
        net.partition(["client-1"], [replica.node_id
                                     for replica in kvs.replicas_for("k")])
        results = []
        client.get("k", callback=results.append)
        sim.run(until=200.0)
        assert client.transport.pending_requests == 0
        assert net.metrics.counter("transport.rpc_timeouts") == 1
        assert client.pending_gets == {}
        assert results == []
