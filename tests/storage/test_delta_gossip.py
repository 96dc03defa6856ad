"""Delta-state gossip: the fixpoint it reaches, and the protocol.

Replicas must reach exactly the per-key lattice join of every value written
— under concurrent conflicting writes, across a live reshard, under heavy
message loss (gap fills and go-backs), and after a state-losing recovery
(digest-tree anti-entropy) — while a write crosses each replica link once
and an idle round ships nothing.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    Message,
    Network,
    NetworkConfig,
    Simulator,
    TransportConfig,
    wire_size,
)
from repro.cluster.watermark import RETRANSMIT_AFTER_ROUNDS
from repro.lattices import GCounter, SetUnion
from repro.storage import LatticeKVS
from repro.storage.antientropy import DigestTree
from repro.storage.kvs import ShardNode


def build_kvs(shards=2, replication=3, seed=7, drop_rate=0.0,
              full_sync_every=10):
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5, drop_rate=drop_rate))
    kvs = LatticeKVS(sim, net, shard_count=shards, replication_factor=replication,
                     gossip_interval=20.0, full_sync_every=full_sync_every)
    return sim, net, kvs


def conflicting_workload(kvs, written, keys=12, writers=3):
    """Concurrent conflicting writes applied directly at different replicas;
    each is also folded into ``written``, the oracle."""
    for index in range(keys * writers):
        for key, value in (
            (f"cart-{index % keys}", SetUnion({f"item-{index}"})),
            (f"count-{index % keys}",
             GCounter().increment(f"w-{index % writers}", 1)),
        ):
            replicas = kvs.replicas_for(key)
            replicas[index % len(replicas)].merge_local(key, value)
            fold(written, key, value)


def fold(written, key, value):
    """The spec: a key's value is the lattice join of every value written."""
    written[key] = written[key].merge(value) if key in written else value


def put(kvs, written, key, value):
    kvs.put(key, value)
    fold(written, key, value)


def merged_view(kvs, keys):
    return {key: kvs.get_merged(key) for key in keys}


def assert_replicas_converged(kvs):
    for shard in kvs.shards:
        for key in {k for replica in shard for k in replica.store}:
            values = [replica.value_of(key) for replica in shard]
            assert all(value == values[0] for value in values), (
                f"replicas diverge on {key!r}: {values}"
            )


class TestDeltaFixpoint:
    def test_fixpoint_is_the_join_of_every_write(self):
        sim, net, kvs = build_kvs()
        written = {}
        conflicting_workload(kvs, written)
        kvs.settle(600.0)
        assert_replicas_converged(kvs)
        assert merged_view(kvs, written) == written

    def test_fixpoint_is_the_join_across_live_reshard(self):
        sim, net, kvs = build_kvs(shards=3, replication=2)
        written = {}
        for i in range(120):
            put(kvs, written, f"key-{i}", SetUnion({i}))
        conflicting_workload(kvs, written)
        # Reshard while puts and their gossip windows are in flight.
        kvs.reshard(5)
        for i in range(120, 150):
            put(kvs, written, f"key-{i}", SetUnion({i}))
        kvs.settle(800.0)
        assert_replicas_converged(kvs)
        assert len(written) == 150 + 24
        assert merged_view(kvs, written) == written

    def test_no_resurrection_after_reshard_with_dirty_deltas_in_flight(self):
        sim, net, kvs = build_kvs(shards=2, replication=2)
        for i in range(60):
            kvs.put(f"key-{i}", SetUnion({i}))
        # Stamped keys are now pending; fire the gossip tick explicitly so
        # the windows are in flight, then move the keys away.
        for shard in kvs.shards:
            for replica in shard:
                replica._gossip_tick()
        kvs.reshard(6)
        kvs.settle(600.0)
        for shard_index, shard in enumerate(kvs.shards):
            for replica in shard:
                for key in replica.store:
                    assert kvs.shard_for(key) == shard_index, (
                        f"{key!r} resurrected on shard {shard_index}"
                    )
        for i in range(60):
            assert kvs.get_merged(f"key-{i}") == SetUnion({i})


class TestDeltaGossipRobustness:
    def test_retransmits_unacked_deltas_until_converged(self):
        """With half of all messages dropped, gaps are filled and unconfirmed
        windows shipped again (and anti-entropy backstops them) until every
        replica converges."""
        sim, net, kvs = build_kvs(shards=1, replication=3, seed=23,
                                  drop_rate=0.5)
        replicas = kvs.shards[0]
        for index in range(30):
            replicas[index % 3].merge_local(f"k-{index % 10}",
                                            SetUnion({f"v-{index}"}))
        kvs.settle(2000.0)
        assert_replicas_converged(kvs)
        for index in range(10):
            assert len(kvs.get_merged(f"k-{index}").elements) == 3

    def test_anti_entropy_heals_state_losing_recovery(self):
        """A replica that recovers with lost state is repopulated by
        digest-tree anti-entropy, not by windows (its peers' logs are empty
        once converged)."""
        sim, net, kvs = build_kvs(shards=1, replication=2,
                                  full_sync_every=5)
        replica_a, replica_b = kvs.shards[0]
        for index in range(40):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(400.0)
        replica_b.crash()
        replica_b.recover(lose_state=True)
        assert len(replica_b.store) == 0
        # No new writes: only anti-entropy can carry the old keys back.
        kvs.settle(400.0)
        assert len(replica_b.store) == 40
        assert_replicas_converged(kvs)
        assert net.metrics.counter("kvs.antientropy.repair_entries") >= 40

    def test_recovered_replica_resumes_gossiping(self):
        """Crash cancels the gossip timer; recover must re-arm it, or a
        write a recovered replica ships into a cut can never reach its peers
        (the tick is the loss backstop)."""
        sim, net, kvs = build_kvs(shards=1, replication=2,
                                  full_sync_every=10 ** 6)
        replica_a, replica_b = kvs.shards[0]
        replica_b.crash()
        replica_b.recover()
        cut = net.partition({replica_b.node_id}, {replica_a.node_id})
        replica_b.merge_local("k", SetUnion({"from-b"}))
        sim.run(until=sim.now + 1.0)  # the first shipment dies in the cut
        net.heal(cut)
        kvs.settle(200.0)
        assert replica_a.value_of("k") == SetUnion({"from-b"})

    def test_lost_ack_does_not_pin_retransmissions(self):
        """A window whose ack is lost is shipped again only once the grace
        has run out, and one ack that does land quiesces the peer: the
        watermarks meet, the log drains and further ticks ship nothing."""
        sim, net, kvs = build_kvs(shards=1, replication=2,
                                  full_sync_every=1000)
        replica_a, replica_b = kvs.shards[0]
        sync = replica_a._sync[replica_b.node_id]
        lost_acks = net.partition({replica_b.node_id}, {replica_a.node_id},
                                  oneway=True)
        replica_a.merge_local("k", SetUnion({1}))
        replica_a._gossip_tick()  # the first shipment: its ack will be lost
        sim.run(until=sim.now + 5.0)
        assert replica_b.value_of("k") == SetUnion({1})
        assert (sync.confirmed, sync.shipped) == (0, 1)
        before = net.bytes_sent
        replica_a._gossip_tick()  # within grace: no resend
        assert net.bytes_sent == before
        net.heal(lost_acks)
        replica_a._gossip_tick()  # overdue now: ships again from `confirmed`
        assert net.bytes_sent - before == wire_size(1)
        sim.run(until=sim.now + 5.0)  # only the retransmission's ack arrives
        assert (sync.confirmed, sync.shipped, sync.overdue) == (1, 1, 0)
        assert replica_a.change_log.stamps == {}
        before = net.bytes_sent
        replica_a._gossip_tick()
        assert net.bytes_sent == before  # nothing unconfirmed, nothing stamped

    def test_high_rtt_gossip_quiesces_after_convergence(self):
        """When the ack round trip exceeds the gossip interval, the grace
        period prevents the perpetual renumber-and-retransmit loop: once
        writes stop and acks land, rounds ship nothing."""
        sim = Simulator(seed=19)
        net = Network(sim, NetworkConfig(base_delay=15.0, jitter=1.0))  # RTT ~30
        kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=2,
                         gossip_interval=25.0,
                         full_sync_every=10 ** 6)
        for index in range(200):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(1000.0)
        assert_replicas_converged(kvs)
        before = net.bytes_sent
        kvs.settle(2000.0)
        assert net.bytes_sent == before, (
            f"converged high-RTT cluster still shipped {net.bytes_sent - before} bytes"
        )

    def test_extreme_rtt_still_quiesces_and_bounds_backlog(self):
        """Even when the ack round trip spans several gossip intervals, an
        ack names a stamp, not a round: whichever copy of a window it
        answers, it confirms the same changes, so the log drains instead of
        growing forever."""
        sim = Simulator(seed=37)
        net = Network(sim, NetworkConfig(base_delay=60.0, jitter=2.0))  # RTT ~120
        kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=2,
                         gossip_interval=25.0,
                         full_sync_every=10 ** 6)
        for index in range(100):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(2000.0)
        assert_replicas_converged(kvs)
        for replica in kvs.shards[0]:
            assert replica.change_log.stamps == {}, f"log never drained on {replica.node_id}"
            assert all(sync.confirmed == sync.shipped == replica.change_log.seq
                       for sync in replica._sync.values())
        before = net.bytes_sent
        kvs.settle(1000.0)
        assert net.bytes_sent == before

    def test_backlog_capped_when_peer_never_acks(self):
        """A dead peer must not grow the sender's bookkeeping without bound:
        per peer it is the same few integers whatever is in flight, and the
        log holds one stamp per distinct key changed, however often."""
        sim, net, kvs = build_kvs(shards=1, replication=2,
                                  full_sync_every=10 ** 6)
        replica_a, replica_b = kvs.shards[0]
        sync = replica_a._sync[replica_b.node_id]
        replica_b.crash()  # never acks again
        for index in range(50):
            replica_a.merge_local(f"k-{index % 10}", SetUnion({index}))
            replica_a._gossip_tick()
            assert len(replica_a.change_log.stamps) <= 10
            assert (sync.confirmed, sync.ahead) == (0, {})
            assert sync.overdue < RETRANSMIT_AFTER_ROUNDS
        replica_b.recover()
        kvs.settle(100.0)
        assert_replicas_converged(kvs)
        assert replica_a.change_log.stamps == {} and sync.confirmed == sync.shipped == 50

    def test_high_rtt_sustained_writes_ship_o_delta_not_o_store(self):
        """Under continuous writes on a high-RTT link, windows still awaiting
        their ack must not be folded into every fresh one — otherwise
        payloads grow cumulatively toward full-store size."""
        sim = Simulator(seed=29)
        net = Network(sim, NetworkConfig(base_delay=15.0, jitter=1.0))  # RTT ~30
        kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=2,
                         gossip_interval=25.0,
                         full_sync_every=10 ** 6)
        for index in range(500):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(1000.0)
        before = net.bytes_sent
        # ~1 fresh write per gossip round for 20 rounds.
        for index in range(20):
            kvs.put(f"fresh-{index}", SetUnion({index}))
            kvs.settle(25.0)
        churn = net.bytes_sent - before
        # O(delta): each write costs one one-entry window and its ack, far
        # below what shipping the 500-key store even once would cost.
        assert churn < wire_size(500), f"{churn} bytes for 20 single-key writes"
        assert_replicas_converged(kvs)

    def test_gossip_quiesces_to_deltas_after_convergence(self):
        """Once converged, a tick ships nothing; only the periodic
        anti-entropy round still exchanges (O(1)) digests."""
        sim, net, kvs = build_kvs(shards=1, replication=2,
                                  full_sync_every=1000)
        replica_a, replica_b = kvs.shards[0]
        for index in range(50):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(600.0)
        before = net.bytes_sent
        replica_a._gossip_tick()
        replica_b._gossip_tick()
        assert net.bytes_sent == before  # nothing stamped, nothing sent

        replica_a.merge_local("k-3", SetUnion({"fresh"}))
        before = net.bytes_sent
        replica_a._gossip_tick()
        assert net.bytes_sent - before == wire_size(1)


class TestRecoverDuringPartition:
    """Audit for ``Node.recover(lose_state=True)``: a replica
    recovered with lost state must rejoin delta gossip — its own writes
    must be stamped and shipped to peers, and digest-tree anti-entropy must
    refill it — even when the recovery happens while a partition is still
    unhealed and every message in between is lost."""

    def test_lose_state_recovery_during_unhealed_partition_heals_after(self):
        sim, net, kvs = build_kvs(shards=1, replication=2,
                                  full_sync_every=5)
        replica_a, replica_b = kvs.shards[0]
        for index in range(30):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(400.0)
        assert_replicas_converged(kvs)

        partition = net.partition({replica_a.node_id}, {replica_b.node_id})
        replica_b.crash()
        sim.run(until=sim.now + 40.0)
        # Recover with lost state while the partition is still up: every
        # refill message from A is dropped until the heal.
        replica_b.recover(lose_state=True)
        assert replica_b.store == {}
        # B also takes fresh writes of its own while still partitioned.
        for index in range(30, 40):
            replica_b.merge_local(f"k-{index}", SetUnion({index}))
        kvs.settle(200.0)
        assert replica_a.value_of("k-35") is None  # nothing crossed the cut

        net.heal(partition)
        kvs.settle(600.0)
        assert len(replica_b.store) == 40  # refilled by anti-entropy rounds
        assert replica_a.value_of("k-35") == SetUnion({35})  # B's own writes
        assert_replicas_converged(kvs)

    def test_lose_state_recovery_keeps_gossiping_new_writes(self):
        """The recovered replica's log carries on from its old numbering, so
        post-recovery writes are accepted by peers that remember it."""
        sim, net, kvs = build_kvs(shards=1, replication=2,
                                  full_sync_every=1000)
        replica_a, replica_b = kvs.shards[0]
        replica_b.crash()
        replica_b.recover(lose_state=True)
        replica_b.merge_local("fresh", SetUnion({"b"}))
        kvs.settle(200.0)
        assert replica_a.value_of("fresh") == SetUnion({"b"})


class TestDeltaGossipBytes:
    @staticmethod
    def round_bytes(store_size, writes):
        sim, net, kvs = build_kvs(shards=1, replication=2, seed=31,
                                  full_sync_every=10 ** 6)
        replica_a, replica_b = kvs.shards[0]
        for index in range(store_size):
            replica_a.merge_local(f"k-{index}", SetUnion({index}))
        kvs.settle(600.0)
        for index in range(writes):
            replica_a.merge_local(f"k-{index}", SetUnion({f"fresh-{index}"}))
        before = net.bytes_sent
        replica_a._gossip_tick()
        return net.bytes_sent - before

    @pytest.mark.parametrize("store_size", [200, 1000])
    def test_round_bytes_scale_with_delta_not_store(self, store_size):
        """A round ships what a store holding only the written keys ships."""
        writes = 10
        shipped = self.round_bytes(store_size, writes)
        assert shipped == self.round_bytes(writes, writes) <= wire_size(writes)


# -- the watermark protocol, one shard at a time -------------------------------------------

ROUND = 20.0


class Shard:
    """``count`` replicas of one shard, every gossip parcel and ack recorded.

    Built from bare :class:`ShardNode` s with the payload sanitizer armed;
    ``interval=None`` leaves the ticks to the test, ``full_sync_every``
    defaults to never so only the protocol under test can heal a loss.
    """

    def __init__(self, count=3, seed=5, interval=ROUND, jitter=0.0,
                 full_sync_every=10 ** 6):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim, NetworkConfig(base_delay=1.0, jitter=jitter),
                           transport=TransportConfig(sanitize=True))
        ids = [f"r{index}" for index in range(count)]
        self.replicas = [
            ShardNode(rid, self.sim, self.net, domain=f"az-{index}", peers=ids,
                      gossip_interval=interval, full_sync_every=full_sync_every)
            for index, rid in enumerate(ids)]
        #: (sender, destination, mailbox, payload, declared entries)
        self.sent = []
        #: Writes that grew an entry at the replica they entered the group at.
        self.changes = 0
        for replica in self.replicas:
            self._record(replica)

    def _record(self, replica):
        queue = replica.queue

        def recording(destination, mailbox, payload, entries=0):
            if mailbox in ("gossip", "gossip_ack"):
                self.sent.append((replica.node_id, destination, mailbox,
                                  payload, entries))
            queue(destination, mailbox, payload, entries)

        replica.queue = recording

    def put(self, index, *keys, element):
        """A write (or a burst of them) in an event of its own: merged,
        stamped and pushed."""
        for key in keys:
            self.changes += self.replicas[index].merge_local(
                key, SetUnion({element}))
        self.sim.run(until=self.sim.now)

    def run(self, ticks):
        self.sim.run(until=self.sim.now + ticks)

    def cut(self, source, destination, oneway=True):
        return self.net.partition([f"r{source}"], [f"r{destination}"],
                                  oneway=oneway)

    def windows(self, start=0):
        """Stamped windows sent since ``start``: (sender, destination, since,
        seq, keys)."""
        return [(sender, destination, payload["since"], payload["seq"],
                 sorted(payload["entries"]))
                for sender, destination, mailbox, payload, _ in self.sent[start:]
                if mailbox == "gossip" and "since" in payload]

    def acks(self, start=0):
        return [(sender, destination, payload["seen"], payload["until"])
                for sender, destination, mailbox, payload, _ in self.sent[start:]
                if mailbox == "gossip_ack"]

    def counter(self, name):
        return self.net.metrics.counter(f"kvs.gossip.{name}")

    def join(self):
        joined = {}
        for replica in self.replicas:
            for key, value in replica.store.items():
                joined[key] = value.merge(joined[key]) if key in joined else value
        return joined

    def assert_settled(self):
        """Converged, confirmed and quiet: the state every run must reach."""
        joined = self.join()
        for replica in self.replicas:
            assert replica.store == joined, replica.node_id
            log = replica.change_log.stamps
            assert log == {}, (replica.node_id, log)
            assert replica.tree == DigestTree.from_store(replica.store)
            for peer, sync in replica._sync.items():
                assert sync.confirmed == sync.shipped == replica.change_log.seq, (
                    replica.node_id, peer, sync)
                assert (sync.overdue, sync.ahead) == (0, {}), (
                    replica.node_id, peer, sync)
        self.assert_ledger()
        # An idle round sends nothing at all.
        settled = len(self.sent)
        self.run(2 * ROUND)
        assert self.sent[settled:] == []

    def assert_ledger(self):
        assert self.counter("fresh_entries") <= self.counter("dirty_marks")
        stamped = [(payload, entries) for _, _, mailbox, payload, entries in self.sent
                   if mailbox == "gossip" and "since" in payload]
        assert sum(len(payload["entries"]) for payload, _ in stamped) == (
            self.counter("fresh_entries") + self.counter("retransmit_entries"))
        assert all(entries == len(payload["entries"]) for payload, entries in stamped)


class TestWatermarkProtocol:
    def test_a_put_crosses_each_link_once_and_nothing_follows_it(self):
        shard = Shard(3)
        shard.put(0, "k", element=1)
        shard.run(6 * ROUND)
        assert shard.windows() == [("r0", "r1", 0, 1, ["k"]),
                                   ("r0", "r2", 0, 1, ["k"])]
        assert sorted(shard.acks()) == [("r1", "r0", 1, None),
                                        ("r2", "r0", 1, None)]
        assert shard.net.bytes_sent == 2 * wire_size(1) + 2 * wire_size(0)
        assert shard.counter("dirty_marks") == shard.counter("fresh_entries") == 2
        assert shard.counter("retransmit_entries") == 0
        shard.assert_settled()

    def test_a_burst_stamped_by_one_event_rides_one_window_per_peer(self):
        shard = Shard(3)
        keys = [f"k-{index}" for index in range(5)]
        for key in keys:
            shard.replicas[1].merge_local(key, SetUnion({1}))
        shard.replicas[1].merge_local("k-0", SetUnion({2}))  # moves to the tail
        shard.run(ROUND)
        assert shard.windows() == [("r1", "r0", 0, 6, keys), ("r1", "r2", 0, 6, keys)]
        assert list(shard.sent[0][3]["entries"])[-1] == "k-0"  # change order
        assert (shard.counter("dirty_marks"), shard.counter("fresh_entries")) == (12, 10)
        shard.assert_settled()

    def test_a_drained_log_keeps_no_dead_slots(self):
        """A dict keeps the slots of deleted keys until its next resize, and
        every walk of the log crosses them: a preload's log trimmed key by
        key cost ``kvs_geo_mixed`` 12 % of its host throughput.  Confirmed by
        everyone, the log gives its table back."""
        shard = Shard(3)
        shard.put(0, *(f"k-{index}" for index in range(5000)), element=1)
        assert sys.getsizeof(shard.replicas[0].change_log.stamps) > 100 * sys.getsizeof({})
        shard.run(ROUND)
        assert shard.replicas[0].change_log.stamps == {}
        assert sys.getsizeof(shard.replicas[0].change_log.stamps) == sys.getsizeof({})
        shard.assert_settled()

    def test_windows_delivered_out_of_order_cost_no_retransmission(self):
        """B before A: the later window waits in ``ahead`` and the earlier
        one, arriving late, connects it — nobody ships anything twice."""
        shard = Shard(2, interval=None)
        sender, receiver = shard.replicas
        held_back = shard.cut(0, 1)
        shard.put(0, "a", element=1)  # window A: recorded, but it never arrives...
        shard.net.heal(held_back)
        shard.put(0, "b", element=2)  # ...before window B does
        shard.run(5.0)
        seen = receiver._sync["r0"]
        assert (seen.seen, seen.ahead) == (0, {1: 2})
        assert shard.acks() == [("r1", "r0", 0, None)]
        window_a = shard.sent[0][3]
        receiver._on_gossip(Message(source="r0", destination="r1", mailbox="gossip",
                                    payload=window_a, sent_at=shard.sim.now,
                                    message_id=0))
        shard.run(5.0)
        assert (seen.seen, seen.ahead) == (2, {})
        assert shard.acks()[-1] == ("r1", "r0", 2, None)
        assert len(shard.windows()) == 2
        assert shard.counter("retransmit_entries") == 0
        shard.assert_settled()

    def test_a_dropped_middle_window_is_filled_by_exactly_its_stamps(self):
        shard = Shard(2, interval=None)
        sender, receiver = shard.replicas
        shard.put(0, "a", element=1)
        lost = shard.cut(0, 1)
        shard.put(0, "b", element=2)  # the middle window: lost
        shard.net.heal(lost)
        shard.put(0, "c", element=3)
        shard.run(5.0)
        assert receiver._sync["r0"].ahead == {2: 3}
        sent = len(shard.sent)
        sender._gossip_tick()  # the ack is not overdue yet: the sender waits
        assert shard.sent[sent:] == []
        receiver._gossip_tick()  # a gap that outlived a round is named
        shard.run(5.0)
        assert shard.acks(sent) == [("r1", "r0", 1, 2), ("r1", "r0", 3, None)]
        assert shard.windows(sent) == [("r0", "r1", 1, 2, ["b"])]
        assert shard.counter("retransmit_entries") == 1
        shard.assert_settled()

    def test_a_gap_whose_stamps_were_superseded_is_filled_by_an_empty_window(self):
        shard = Shard(2, interval=None)
        sender, receiver = shard.replicas
        lost = shard.cut(0, 1)
        shard.put(0, "k", element=1)  # lost
        shard.net.heal(lost)
        shard.put(0, "k", element=2)  # the same key again: one stamp, at the tail
        shard.run(5.0)
        assert receiver.value_of("k") == SetUnion({1, 2})
        sent = len(shard.sent)
        receiver._gossip_tick()
        shard.run(5.0)
        assert shard.windows(sent) == [("r0", "r1", 0, 1, [])]
        assert shard.counter("retransmit_entries") == 0
        shard.assert_settled()

    def test_a_dropped_last_window_is_shipped_again_after_the_grace(self):
        shard = Shard(2, interval=None)
        sender, receiver = shard.replicas
        lost = shard.cut(0, 1)
        shard.put(0, "k", element=1)
        shard.net.heal(lost)
        sent = len(shard.sent)
        for _ in range(RETRANSMIT_AFTER_ROUNDS - 1):
            sender._gossip_tick()
            receiver._gossip_tick()  # nothing ahead: nothing to name
        assert shard.sent[sent:] == []
        sender._gossip_tick()
        shard.run(5.0)
        assert shard.windows(sent) == [("r0", "r1", 0, 1, ["k"])]
        assert shard.counter("retransmit_entries") == 1
        assert receiver.value_of("k") == SetUnion({1})
        shard.assert_settled()

    def test_entries_from_a_peer_are_never_passed_on(self):
        """No echo, even of a genuine merge: both operands have an origin
        that delivers them to the third replica itself."""
        shard = Shard(3)
        shard.put(0, "k", element="from-r0")
        shard.put(1, "k", element="from-r1")
        shard.run(4 * ROUND)
        assert sorted(window[:2] for window in shard.windows()) == [
            ("r0", "r1"), ("r0", "r2"), ("r1", "r0"), ("r1", "r2")]
        assert shard.replicas[2].change_log.seq == 0
        shard.assert_settled()

    def test_stamps_carry_on_across_a_state_losing_recovery(self):
        """A rebooted replica's next window connects to what its peers
        remember of it: one window, one ack, no gap to name."""
        shard = Shard(2, full_sync_every=3)
        for element in range(3):
            shard.put(0, "k", element=element)
        shard.run(ROUND)
        shard.replicas[0].crash()
        shard.replicas[0].recover(lose_state=True)
        assert shard.replicas[0].change_log.seq == 3
        shard.run(ROUND)  # the digest exchange it opened refills it
        assert shard.replicas[0].store == shard.replicas[1].store
        sent = len(shard.sent)
        shard.put(0, "fresh", element=1)
        shard.run(ROUND)
        assert shard.windows(sent) == [("r0", "r1", 3, 4, ["fresh"])]
        assert shard.acks(sent) == [("r1", "r0", 4, None)]
        shard.assert_settled()

    def test_a_sender_that_lost_its_log_still_closes_the_gap_it_left(self):
        """Windows a replica shipped into a cut and then lost with its state
        are nobody's to ship again: it answers the named gap with an empty
        window, and the digest exchange repairs whatever content is missing."""
        shard = Shard(2, full_sync_every=3)
        lost = shard.cut(0, 1)
        shard.put(0, "gone", element=1)
        shard.replicas[0].crash()
        shard.replicas[0].recover(lose_state=True)
        shard.net.heal(lost)
        shard.put(0, "kept", element=2)
        shard.run(3 * ROUND)
        assert ("r0", "r1", 0, 1, []) in shard.windows()
        assert shard.join() == {"kept": SetUnion({2})}
        shard.assert_settled()


# -- convergence under generated faults ---------------------------------------------------

REPLICA = st.integers(0, 3)
KEY = st.sampled_from([f"k{index}" for index in range(5)])
ELEMENT = st.integers(0, 99)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("put"), REPLICA, st.lists(KEY, min_size=1, max_size=1), ELEMENT),
    st.tuples(st.just("put"), REPLICA, st.lists(KEY, min_size=1, max_size=1), ELEMENT),
    # A burst: one event stamps several keys (distinct, so that fault-free
    # every stamp still ships).
    st.tuples(st.just("put"), REPLICA, st.lists(KEY, max_size=4, unique=True), ELEMENT),
    st.tuples(st.just("run"), st.floats(0.1, 9.0)),
    st.tuples(st.just("run"), st.sampled_from([ROUND, 2 * ROUND, 5 * ROUND])),
    st.tuples(st.just("drops"), st.sampled_from([0.0, 0.3, 0.7])),
    st.tuples(st.just("partition"), REPLICA),
    # One link, both ways or one: an origin that is alive but cannot reach
    # one peer (or hear its acks) — no whole-node partition produces that.
    st.tuples(st.just("cut"), REPLICA, REPLICA, st.booleans()),
    st.tuples(st.just("heal")),
    st.tuples(st.just("crash"), REPLICA),
    st.tuples(st.just("recover"), REPLICA, st.booleans()),
    st.tuples(st.just("drop_keys"), st.lists(KEY, min_size=1, max_size=2, unique=True)),
), max_size=50)
#: Steps that make a run faulty; ``run`` and ``put`` alone never do.
FAULTS = {"drops", "partition", "cut", "crash", "recover", "drop_keys"}
#: Rounds a healed shard gets: a lost ack is noticed after two and the
#: go-back confirmed in the third; with the digest tree on, every pair
#: exchanges once per ``full_sync_every`` = 3 rounds, after at most one
#: session that died with a fault has timed out (50 ticks).
CONVERGE_ROUNDS = 12


def play(shard, steps, anti_entropy):
    """Run a generated schedule.  State loss and ``drop_keys`` are only
    played with the digest tree on — without it they are not repairable, by
    design: the log holds what is unconfirmed, not the store."""
    replicas = shard.replicas
    for kind, *args in steps:
        if kind == "run":
            shard.run(args[0])
        elif kind == "drops":
            shard.net.config.drop_rate = args[0]
        elif kind == "heal":
            shard.net.heal_all()
        elif kind == "drop_keys":
            if anti_entropy:
                for replica in replicas:
                    replica.drop_keys(set(args[0]))
        else:
            index = args[0] % len(replicas)
            replica = replicas[index]
            if kind == "put":
                shard.put(index, *args[1], element=args[2])
            elif kind == "partition":
                shard.net.partition(
                    [replica.node_id],
                    [other.node_id for other in replicas if other is not replica])
            elif kind == "cut":
                shard.cut(index, args[1] % len(replicas), oneway=args[2])
            elif kind == "crash":
                replica.crash()
            elif kind == "recover":
                replica.recover(lose_state=args[1] and anti_entropy)


@given(st.integers(2, 4), st.integers(0, 50), st.sampled_from([0.0, 2.0]),
       STEPS, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_replicas_converge_and_the_protocol_drains(count, seed, jitter, steps,
                                                   anti_entropy, lose_at_heal):
    shard = Shard(count, seed=seed, jitter=jitter,
                  full_sync_every=3 if anti_entropy else 10 ** 6)
    play(shard, steps, anti_entropy)
    shard.net.config.drop_rate = 0.0
    shard.net.heal_all()
    for replica in shard.replicas:
        if not replica.alive:
            replica.recover(lose_state=lose_at_heal and anti_entropy)
    held_at_heal = shard.join()
    shard.run(CONVERGE_ROUNDS * ROUND)

    joined = shard.join()
    assert all(key in joined and value.leq(joined[key])
               for key, value in held_at_heal.items())  # nothing held was lost
    shard.assert_settled()
    if jitter == 0.0 and not FAULTS & {kind for kind, *_ in steps}:
        # Fault-free and in order: every stamp is shipped to every peer
        # exactly once, and that is all that is ever shipped.
        assert shard.counter("retransmit_entries") == 0
        assert shard.counter("fresh_entries") == shard.counter("dirty_marks") == (
            (count - 1) * shard.changes)
        assert shard.changes == sum(replica.change_log.seq for replica in shard.replicas)
