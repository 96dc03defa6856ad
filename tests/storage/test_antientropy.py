"""Digest-tree anti-entropy: O(divergence) repair and its lifecycle edges.

The tree itself must be a pure function of store content (never of update
order or hash seed), and the reconciliation protocol built on it must keep
the old full-store sync's healing guarantees — state-losing recoveries
re-converge, reshards never corrupt the tree — at a fraction of the bytes:
an idle anti-entropy round costs O(1) regardless of store size, and a
repair round ships O(differing keys).
"""

import random
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import Network, NetworkConfig, Simulator, wire_size
from repro.lattices import (
    BoolOr,
    GCounter,
    LWWRegister,
    MapLattice,
    MaxInt,
    SetUnion,
    TwoPhaseSet,
    VectorClock,
)
from repro.storage import LatticeKVS
from repro.storage.antientropy import (
    LEAF_LEVEL,
    PROBE_ROUNDS,
    TREE_FANOUT,
    DigestTree,
)
from repro.storage.ring import stable_digest


def build_kvs(shards=1, replication=2, seed=7, full_sync_every=5,
              gossip_interval=20.0):
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
    kvs = LatticeKVS(sim, net, shard_count=shards,
                     replication_factor=replication,
                     gossip_interval=gossip_interval,
                     full_sync_every=full_sync_every)
    return sim, net, kvs


def assert_replicas_converged(kvs):
    for shard in kvs.shards:
        for key in {k for replica in shard for k in replica.store}:
            values = [replica.store.get(key) for replica in shard]
            assert all(value == values[0] for value in values), (
                f"replicas diverge on {key!r}: {values}")


#: Per lattice type, two updates of one key for two replicas to merge in
#: opposite orders; a counter, clock or map builds its entries in that order.
SPLIT_UPDATES = [
    (BoolOr(True), BoolOr(False)),
    (MaxInt(3), MaxInt(5)),
    (SetUnion({1}), SetUnion({2})),
    (TwoPhaseSet({1}, ()), TwoPhaseSet({2}, {1})),
    (GCounter({"a": 1}), GCounter({"b": 1})),
    (VectorClock({"a": 1}), VectorClock({"b": 1})),
    (LWWRegister(5.0, "x", "a"), LWWRegister(5.0, "x", "b")),
    (MapLattice({"x": SetUnion({1})}), MapLattice({"y": MaxInt(2)})),
]


class TestDigestTree:
    def test_content_pure_across_update_orders(self):
        """Trees over the same entries are identical whatever the order —
        including orders that pass through intermediate values."""
        entries = {f"k-{i}": SetUnion({i, i + 1}) for i in range(200)}
        forward = DigestTree()
        for key in sorted(entries):
            forward.update(key, entries[key])
        shuffled = DigestTree()
        keys = list(entries)
        random.Random(42).shuffle(keys)
        for key in keys:
            # Grow through an intermediate value first: only the final
            # content may matter.
            shuffled.update(key, SetUnion({0}))
            shuffled.update(key, entries[key])
        assert forward == shuffled
        assert forward == DigestTree.from_store(entries)
        assert forward.root() == shuffled.root()

    def test_update_remove_roundtrip_restores_empty(self):
        tree = DigestTree()
        for i in range(50):
            tree.update(f"k-{i}", SetUnion({i}))
        for i in range(50):
            tree.remove(f"k-{i}")
        assert tree == DigestTree()
        assert tree.root() == 0
        assert len(tree) == 0

    def test_value_growth_changes_every_ancestor(self):
        tree = DigestTree()
        tree.update("k", SetUnion({1}))
        digest = stable_digest("k")
        path = [DigestTree.bucket_of(digest, level)
                for level in range(LEAF_LEVEL + 1)]

        def ancestors():
            return [tree.digests(level, [bucket])[bucket]
                    for level, bucket in enumerate(path)]

        before = ancestors()
        tree.update("k", SetUnion({1, 2}))
        after = ancestors()
        assert all(b != a for b, a in zip(before, after))
        # A no-op update (same content) changes nothing.
        tree.update("k", SetUnion({1, 2}))
        assert ancestors() == after

    def test_parent_digest_is_xor_of_children(self):
        """The recursion's soundness: a parent mismatch implies some child
        mismatch, which holds exactly when parents are the XOR of their
        children at every interior level."""
        store = {f"k-{i}": GCounter().increment(f"w{i % 3}", i + 1)
                 for i in range(300)}
        tree = DigestTree.from_store(store)
        for level in range(LEAF_LEVEL):
            held = tree._levels[level]
            for bucket, children in tree.child_digests(level, held).items():
                folded = 0
                for child_digest in children.values():
                    folded ^= child_digest
                assert folded == held[bucket], (level, bucket)

    def test_leaf_summary_sorted_and_exact(self):
        """Leaf reads see exactly their own keys, however many buckets one
        read asks for.  At 5,000 keys hundreds of non-empty leaves are
        neighbours, so a read that strays across a leaf or a parent's
        boundary shows."""
        tree = DigestTree()
        keys = [f"k-{i}" for i in range(5000)]
        for key in keys:
            tree.update(key, SetUnion({key}))
        grouped = {}
        for key in keys:
            grouped.setdefault(DigestTree.leaf_bucket(key), []).append(key)
        summaries = tree.leaf_summaries(grouped)
        leaf_digests = tree.digests(LEAF_LEVEL, grouped)
        for bucket, members in grouped.items():
            summary = summaries[bucket]
            assert list(summary) == sorted(members, key=repr)
            assert tree.leaf_summaries([bucket]) == {bucket: summary}
            folded = 0
            for digest in summary.values():
                folded ^= digest
            assert leaf_digests[bucket] == folded
        parents = {bucket // TREE_FANOUT for bucket in grouped}
        for parent, children in tree.child_digests(LEAF_LEVEL - 1,
                                                   parents).items():
            assert children == {
                bucket: leaf_digests[bucket]
                for bucket in sorted(grouped) if bucket // TREE_FANOUT == parent}
        empty = next(bucket for bucket in range(TREE_FANOUT ** LEAF_LEVEL)
                     if bucket not in grouped)
        assert tree.leaf_summaries([empty]) == {empty: {}}
        assert tree.digests(LEAF_LEVEL, [empty]) == {empty: 0}

    def test_equality_sees_leaf_membership(self):
        """The purity oracle compares the entries, and an entry carries its
        key's leaf: a ghost, misplaced or missing key fails ``==`` even
        though every interior digest still matches, and the leaf reads see
        it."""
        store = {f"k-{i}": SetUnion({i}) for i in range(40)}
        tree = DigestTree.from_store(store)
        shuffled = DigestTree()
        for key in reversed(list(store)):
            shuffled.update(key, store[key])
        assert tree == shuffled
        leaf = DigestTree.leaf_bucket("k-0")
        for corrupt in (lambda entries: entries.update(ghost=entries["k-0"]),
                        # flips the leaf's low bit: a neighbouring leaf
                        lambda entries: entries.update({"k-0": entries["k-0"]
                                                        ^ 1 << 64}),
                        lambda entries: entries.pop("k-0"),
                        lambda entries: entries.clear()):
            broken = DigestTree.from_store(store)
            corrupt(broken._entries)
            assert broken._levels == tree._levels
            assert broken.leaf_summaries([leaf]) != tree.leaf_summaries([leaf])
            assert broken != tree

    def test_memory_per_key_ceiling(self):
        """An entry is one dict slot and one int: a 20k-key register tree
        stays under 100 traced bytes per key (78.5 measured on Python
        3.11; 284.6 when every leaf kept a digest and a member list).
        Counts bytes, reads no clock."""
        keys = [f"k{i:06d}" for i in range(20_000)]
        values = [LWWRegister(i, i) for i in range(len(keys))]
        tracemalloc.start()
        try:
            tree = DigestTree()
            for key, value in zip(keys, values):
                tree.update(key, value)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tree) == len(keys)
        assert held / len(keys) <= 100, held / len(keys)


# Keys mix str, int, tuple and bool — but no int, bare or in a tuple, equals
# a bool (``1 == True``): a store is a dict, so two such keys are one entry,
# yet their canonical encodings route them to different buckets.
_KEYS = st.one_of(
    st.sampled_from(["a", "b", "cart-1", "cart-2", ""]),
    st.integers(min_value=2, max_value=40),
    st.tuples(st.sampled_from(["user", "item"]),
              st.integers(min_value=2, max_value=6)),
    st.booleans(),
)


class DigestTreeMachine(RuleBasedStateMachine):
    """Any interleaving of updates, removals, re-inserts and clears leaves
    the tree equal to a from-scratch rebuild of a shadow store, with exact
    leaf summaries and every parent the XOR of its children."""

    def __init__(self):
        super().__init__()
        self.tree = DigestTree()
        self.store = {}
        self.removed = []

    @rule(key=_KEYS, kind=st.sampled_from(["register", "set", "counter"]),
          seed=st.integers(min_value=0, max_value=5))
    def put_new_value(self, key, kind, seed):
        value = {"register": LWWRegister(seed, f"v{seed}"),
                 "set": SetUnion({seed}),
                 "counter": GCounter({"w": seed + 1})}[kind]
        self.store[key] = value
        self.tree.update(key, value)

    @precondition(lambda self: self.store)
    @rule(data=st.data(), element=st.integers(min_value=0, max_value=9))
    def grow_value(self, data, element):
        key = data.draw(st.sampled_from(sorted(self.store, key=repr)))
        value = self.store[key]
        if isinstance(value, LWWRegister):
            grown = LWWRegister(value.timestamp + 1, f"v{element}")
        elif isinstance(value, SetUnion):
            grown = value.merge(SetUnion({element}))
        else:
            grown = value.increment(f"w{element}")
        self.store[key] = grown
        self.tree.update(key, grown)

    @precondition(lambda self: self.store)
    @rule(data=st.data())
    def rewrite_same_value(self, data):
        key = data.draw(st.sampled_from(sorted(self.store, key=repr)))
        self.tree.update(key, self.store[key])

    @rule(key=_KEYS)
    def remove(self, key):
        if key in self.store:
            self.removed.append((key, self.store.pop(key)))
        self.tree.remove(key)

    @precondition(lambda self: self.removed)
    @rule()
    def reinsert_removed(self):
        key, value = self.removed.pop()
        self.store[key] = value
        self.tree.update(key, value)

    @rule()
    def clear(self):
        self.store.clear()
        self.tree.clear()

    @invariant()
    def equals_rebuild(self):
        assert self.tree == DigestTree.from_store(self.store)
        assert len(self.tree) == len(self.store)

    @invariant()
    def leaf_summaries_are_brute_force_groupings(self):
        rebuilt = DigestTree.from_store(self.store)
        grouped = {}
        for key in self.store:
            grouped.setdefault(stable_digest(key) >> 48, set()).add(key)
        summaries = self.tree.leaf_summaries(grouped)
        assert summaries == rebuilt.leaf_summaries(grouped)
        leaf_digests = self.tree.digests(LEAF_LEVEL, grouped)
        for bucket, keys in grouped.items():
            summary = summaries[bucket]
            assert list(summary) == sorted(keys, key=repr)
            folded = 0
            for digest in summary.values():
                folded ^= digest
            assert leaf_digests[bucket] == folded
        parents = {bucket >> 4 for bucket in grouped}
        assert {leaf for children in self.tree.child_digests(
                    LEAF_LEVEL - 1, parents).values()
                for leaf in children} == set(grouped)

    @invariant()
    def parents_are_xor_of_children(self):
        for level in range(LEAF_LEVEL):
            held = self.tree._levels[level]
            for bucket, children in self.tree.child_digests(level,
                                                            held).items():
                folded = 0
                for child in children.values():
                    folded ^= child
                assert folded == held[bucket], (level, bucket)


DigestTreeMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None)
TestDigestTreeMachine = DigestTreeMachine.TestCase


class TestAntiEntropyLifecycle:
    @pytest.mark.parametrize("store_size", [200, 800])
    def test_idle_round_bytes_constant_in_store_size(self, store_size):
        """A converged store's anti-entropy round is one root probe and one
        empty reply — O(1) bytes however many keys sit underneath it.  The
        old protocol shipped the whole store here."""
        # No gossip timers: ticks are driven manually so the measurement
        # window holds exactly one round.
        sim, net, kvs = build_kvs(full_sync_every=1, gossip_interval=None)
        replica_a, replica_b = kvs.shards[0]
        for index in range(store_size):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(100.0)  # the first shipments converge the stores
        # Let the acks land and the logs drain over a few manual rounds.
        for _ in range(4):
            replica_a._gossip_tick()
            replica_b._gossip_tick()
            sim.run(until=sim.now + 30.0)
        assert_replicas_converged(kvs)
        before = net.bytes_sent
        replica_a._gossip_tick()
        sim.run(until=sim.now + 50.0)
        idle = net.bytes_sent - before
        # One probe (one digest priced as one entry) + one empty reply:
        # two envelopes, nowhere near even a two-entry payload.
        assert 0 < idle <= 2 * wire_size(1), idle
        assert idle < wire_size(store_size) / 20

    def test_repair_ships_only_divergence(self):
        """After one replica diverges by d keys, the next anti-entropy
        round repairs exactly those d keys — never the whole store."""
        sim, net, kvs = build_kvs(full_sync_every=1)
        replica_a, replica_b = kvs.shards[0]
        for index in range(400):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(600.0)
        assert_replicas_converged(kvs)
        # Diverge A silently: merge the way a peer's entry is merged —
        # unstamped, so no window carries it — and only digests can repair.
        for index in range(12):
            replica_a._merge_entry(f"k-{index}", SetUnion({f"fresh-{index}"}))
        before = net.metrics.counter("kvs.antientropy.repair_entries")
        kvs.settle(200.0)
        repaired = net.metrics.counter("kvs.antientropy.repair_entries") - before
        assert_replicas_converged(kvs)
        # Each diverged key is pushed by A and pulled back by B's own
        # session at worst — strictly O(divergence), not O(store).
        assert 12 <= repaired <= 24, repaired

    def test_lose_state_recovery_reconverges_via_digests(self):
        """A state-losing recovery is healed entirely by digest recursion:
        repair entries O(lost keys), and the store
        converges within the anti-entropy cadence horizon."""
        sim, net, kvs = build_kvs(full_sync_every=5)
        replica_a, replica_b = kvs.shards[0]
        for index in range(60):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(400.0)
        replica_b.crash()
        replica_b.recover(lose_state=True)
        assert replica_b.store == {}
        assert len(replica_b._tree) == 0
        # full_sync_every * gossip_interval covers the worst-case wait for
        # the next anti-entropy round; the rest covers the recursion legs.
        kvs.settle(5 * 20.0 + 200.0)
        assert len(replica_b.store) == 60
        assert_replicas_converged(kvs)
        repaired = net.metrics.counter("kvs.antientropy.repair_entries")
        lost = net.metrics.counter("kvs.antientropy.lost_entries")
        assert lost == 60
        assert repaired <= 2 * kvs.replication_factor * lost

    def test_empty_replica_says_so_at_once(self):
        """A state-losing recovery opens a digest exchange with the first
        peer right there instead of serving nothing until the cadence's next
        one: the probe leaves in the same instant and the store is back
        within ``PROBE_ROUNDS`` round trips, cadence or no cadence."""
        sim, net, kvs = build_kvs(full_sync_every=10 ** 6)
        replica_a, replica_b = kvs.shards[0]
        for index in range(60):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(100.0)
        assert net.metrics.counter("kvs.antientropy.rounds") == 0
        replica_b.crash()
        replica_b.recover(lose_state=True)
        sim.run(until=sim.now)  # no time passes: the probe is already out
        assert replica_b.transport.mailbox_stats["ae_probe"]["messages"] == 1
        assert net.metrics.counter("kvs.antientropy.rounds") == 1
        round_trip = 2 * (net.config.base_delay + net.config.jitter)
        sim.run(until=sim.now + PROBE_ROUNDS * round_trip)
        assert replica_b.store == replica_a.store and len(replica_b.store) == 60
        assert net.metrics.counter("kvs.antientropy.repair_entries") == 60

    def test_reshard_rebuilds_only_moved_ranges(self):
        """Growing the ring drops moved keys from the source shard's trees
        incrementally: leaf buckets holding only unmoved keys keep their
        digests bit-for-bit, and every tree still matches its store."""
        sim, net, kvs = build_kvs(shards=2, replication=1,
                                  gossip_interval=None)
        for index in range(300):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(200.0)
        survivor = kvs.shards[0][0]
        old_store = set(survivor.store)
        old_leaves = survivor._tree.digests(
            LEAF_LEVEL, map(DigestTree.leaf_bucket, old_store))
        kvs.reshard(4)
        kvs.settle(200.0)
        moved = old_store - set(survivor.store)
        assert moved, "reshard moved nothing; the test needs more keys"
        moved_buckets = {DigestTree.leaf_bucket(key) for key in moved}
        new_leaves = survivor._tree.digests(LEAF_LEVEL, old_leaves)
        for bucket, digest in old_leaves.items():
            if bucket not in moved_buckets:
                assert new_leaves[bucket] == digest, bucket
        # And the incrementally-updated trees all match their stores.
        for replica in kvs.all_nodes():
            assert replica._tree == DigestTree.from_store(replica.store)

    def test_trees_stay_pure_through_gossip_and_reshard(self):
        """The purity oracle holds after a full workload: concurrent
        conflicting writes, replication, gossip repair and a live reshard."""
        sim, net, kvs = build_kvs(shards=2, replication=2, full_sync_every=5)
        for index in range(90):
            key = f"cart-{index % 30}"
            replicas = kvs.replicas_for(key)
            replicas[index % len(replicas)].merge_local(
                key, SetUnion({f"item-{index}"}))
        kvs.reshard(3)
        for index in range(90, 120):
            kvs.put(f"cart-{index}", SetUnion({index}))
        kvs.settle(800.0)
        assert_replicas_converged(kvs)
        for replica in kvs.all_nodes():
            assert replica._tree == DigestTree.from_store(replica.store)

    def test_dead_peer_aborts_sessions_without_wedging(self):
        """Probes to a crashed peer time out and abort the session; the
        cadence keeps starting fresh exchanges instead of wedging behind a
        ghost, and the eventual recovery converges."""
        sim, net, kvs = build_kvs(full_sync_every=2)
        replica_a, replica_b = kvs.shards[0]
        for index in range(20):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(300.0)
        replica_b.crash()
        kvs.settle(500.0)
        assert net.metrics.counter("kvs.antientropy.aborted") > 0
        assert len(replica_a._ae_sessions) <= 1
        replica_b.recover(lose_state=True)
        kvs.settle(500.0)
        assert_replicas_converged(kvs)
        assert len(replica_b.store) == 20

    @pytest.mark.parametrize("mine, theirs", SPLIT_UPDATES,
                             ids=[type(mine).__name__ for mine, _ in SPLIT_UPDATES])
    def test_values_merged_in_either_order_digest_alike(self, mine, theirs):
        """Replicas that merge different updates of one key end up with
        equal values built in opposite orders — a counter's slots or a map's
        keys inserted the other way round.  Their entry digests must match,
        or every anti-entropy round sees a phantom difference and re-ships
        the key forever."""
        sim, net, kvs = build_kvs(seed=1, full_sync_every=2, gossip_interval=10.0)
        replica_a, replica_b = kvs.shards[0]
        replica_a.merge_local("k", mine)
        replica_b.merge_local("k", theirs)
        sim.run(until=505.0)  # to t=500, and the rounds started then answer
        assert replica_a.store["k"] == replica_b.store["k"] == mine.merge(theirs)
        rounds = net.metrics.counter("kvs.antientropy.rounds")
        assert rounds > 0
        assert net.metrics.counter("kvs.antientropy.converged_rounds") == rounds
        assert net.metrics.counter("kvs.antientropy.repair_entries") == 0

    def test_converged_rounds_cost_one_probe(self):
        """The converged-round counter proves idle rounds stop at the root:
        rounds accumulate while repair entries stay zero."""
        sim, net, kvs = build_kvs(full_sync_every=1)
        for index in range(50):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(600.0)
        assert_replicas_converged(kvs)
        rounds_before = net.metrics.counter("kvs.antientropy.rounds")
        converged_before = net.metrics.counter("kvs.antientropy.converged_rounds")
        repairs_before = net.metrics.counter("kvs.antientropy.repair_entries")
        kvs.settle(200.0)
        assert net.metrics.counter("kvs.antientropy.rounds") > rounds_before
        assert (net.metrics.counter("kvs.antientropy.converged_rounds")
                > converged_before)
        assert net.metrics.counter("kvs.antientropy.repair_entries") == repairs_before
