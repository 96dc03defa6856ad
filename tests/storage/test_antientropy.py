"""Digest-tree anti-entropy: O(divergence) repair and its lifecycle edges.

The tree itself must be a pure function of store content (never of update
order or hash seed), and the reconciliation protocol built on it must keep
the old full-store sync's healing guarantees — state-losing recoveries
re-converge, reshards never corrupt the tree — at a fraction of the bytes:
an idle anti-entropy round costs O(1) regardless of store size, and a
repair round ships O(differing keys).
"""

import itertools
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
from repro.cluster.transport import digest_entries
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


def split_updates():
    """Per lattice type, two updates of one key for two replicas to merge in
    opposite orders; a counter, clock or map builds its entries in that
    order.  Fresh objects on every call."""
    return [
        (BoolOr(True), BoolOr(False)),
        (MaxInt(3), MaxInt(5)),
        (SetUnion({1}), SetUnion({2})),
        (TwoPhaseSet({1}, ()), TwoPhaseSet({2}, {1})),
        (GCounter({"a": 1}), GCounter({"b": 1})),
        (VectorClock({"a": 1}), VectorClock({"b": 1})),
        (LWWRegister(5.0, "x", "a"), LWWRegister(5.0, "x", "b")),
        (MapLattice({"x": SetUnion({1})}), MapLattice({"y": MaxInt(2)})),
    ]


SPLIT_UPDATES = split_updates()


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
        children at every interior level (an empty parent's children XOR
        to 0)."""
        store = {f"k-{i}": GCounter().increment(f"w{i % 3}", i + 1)
                 for i in range(300)}
        tree = DigestTree.from_store(store)
        for level in range(LEAF_LEVEL):
            held = tree._levels[level]
            assert len(held) == TREE_FANOUT ** level
            buckets = range(len(held))
            for bucket, children in tree.child_digests(level, buckets).items():
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
        summaries = tree.members(LEAF_LEVEL, grouped)
        leaf_digests = tree.digests(LEAF_LEVEL, grouped)
        for bucket, members in grouped.items():
            summary = summaries[bucket]
            assert list(summary) == sorted(members, key=repr)
            assert tree.members(LEAF_LEVEL, [bucket]) == {bucket: summary}
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
        assert tree.members(LEAF_LEVEL, [empty]) == {empty: {}}
        assert tree.digests(LEAF_LEVEL, [empty]) == {empty: 0}

    def test_buckets_outside_a_level_read_empty(self):
        """A probe may name any bucket: one past a level's end, or a
        negative one that a list index would wrap to the level's tail,
        reads as empty at every level, digests and members alike, as an
        untouched bucket does."""
        leaves = TREE_FANOUT ** LEAF_LEVEL
        keys = (f"k-{i}" for i in itertools.count())
        # One key in the first and one in the last leaf's parent: every
        # interior level's first and last bucket is non-empty, so a read
        # that wraps -1 or -size onto them shows.
        first = next(key for key in keys
                     if DigestTree.leaf_bucket(key) < TREE_FANOUT)
        last = next(key for key in keys
                    if DigestTree.leaf_bucket(key) >= leaves - TREE_FANOUT)
        tree = DigestTree.from_store({first: SetUnion({1}),
                                      last: SetUnion({2})})
        for level in range(LEAF_LEVEL + 1):
            size = TREE_FANOUT ** level
            if level < LEAF_LEVEL:
                held = tree._levels[level]
                assert held[0] and held[-1]
            outside = [-1, -size, size, size + 1]
            assert tree.digests(level, outside) == dict.fromkeys(outside, 0)
            assert tree.members(level, outside) == {
                bucket: {} for bucket in outside}
            if level < LEAF_LEVEL:
                assert tree.child_digests(level, outside) == {
                    bucket: {} for bucket in outside}
        # In range, only the non-empty children are listed.
        level_one = tree._levels[1]
        assert tree.child_digests(0, [0]) == {0: {
            0: level_one[0], TREE_FANOUT - 1: level_one[-1]}}

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
            assert (broken.members(LEAF_LEVEL, [leaf])
                    != tree.members(LEAF_LEVEL, [leaf]))
            assert broken != tree

    def test_memory_per_key_ceiling(self):
        """An entry is one dict slot and one int: a 20k-key register tree
        stays under 83 traced bytes per key (66.3 measured on Python 3.11
        with flat-list levels; 78.5 with sparse dict levels, 284.6 when
        every leaf kept a digest and a member list).  Counts bytes, reads
        no clock."""
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
        assert held / len(keys) <= 83, held / len(keys)


class TestEntryMemo:
    """A value remembers the last key a tree entered it under and that
    entry, so a replica storing the same object reuses the entry.  The memo
    must never stand in for a different key, and the ``from_store`` oracle
    must never lean on it."""

    def test_the_oracle_never_reads_the_memo(self):
        store = {f"k-{i}": SetUnion({i}) for i in range(20)}
        tree = DigestTree()
        for key, value in store.items():
            tree.update(key, value)
        assert tree == DigestTree.from_store(store)
        planted = store["k-3"]
        planted._tree_entry ^= 1  # a wrong entry digest, same leaf
        fooled = DigestTree()
        for key, value in store.items():
            fooled.update(key, value)
        assert fooled != DigestTree.from_store(store)
        assert DigestTree.from_store(store) == tree
        # Nor does the oracle write one.
        fresh = SetUnion({99})
        DigestTree.from_store({"k": fresh})
        assert not hasattr(fresh, "_tree_key")

    def test_equal_keys_of_other_types_are_hashed_afresh(self):
        """``1``, ``1.0`` and ``True`` are equal, and so are ``(1,)`` and
        ``(True,)``, but each encodes and routes differently."""
        value = LWWRegister(3.0, "v", "w")
        for key in (1, 1.0, True, (1,), (True,), 1, (True,)):
            tree = DigestTree()
            tree.update(key, value)
            assert tree == DigestTree.from_store({key: value}), key
            assert value._tree_key is key

    def test_equal_str_keys_share_one_entry(self):
        first, second = "".join(["cart", "-7"]), "".join(["cart-", "7"])
        assert first == second and first is not second
        value = SetUnion({1, 2})
        one, two = DigestTree(), DigestTree()
        one.update(first, value)
        two.update(second, value)
        assert two._entries[second] is one._entries[first]
        assert two == DigestTree.from_store({second: value})

    @pytest.mark.parametrize("index", range(len(SPLIT_UPDATES)),
                             ids=[type(a).__name__ for a, _ in SPLIT_UPDATES])
    def test_merge_neither_reads_nor_writes_the_memo(self, index):
        """An unset memo slot raises on read, so a merge that read it would
        fail; a planted memo survives every merge unchanged, and a join that
        allocates starts without one."""
        first, second = split_updates()[index]
        joins = [first.merge(second), second.merge(first), first.merge(first)]
        for value in (first, second, *joins):
            assert not hasattr(value, "_tree_key")
            assert not hasattr(value, "_tree_entry")
        key, entry = object(), 1 << 70
        for value in (first, second):
            value._tree_key, value._tree_entry = key, entry
        for joined in (first.merge(second), second.merge(first)):
            planted = joined is first or joined is second
            assert hasattr(joined, "_tree_key") == planted
        for value in (first, second):
            assert value._tree_key is key and value._tree_entry is entry


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
    members at every level and every parent the XOR of its children."""

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

    @precondition(lambda self: self.store)
    @rule(data=st.data(), key=_KEYS)
    def reenter_under_another_key(self, data, key):
        """A value object already digested under one key, entered under
        another: its memo names the first key, so it must not be reused."""
        held = data.draw(st.sampled_from(sorted(self.store, key=repr)))
        value = self.store[held]
        self.store[key] = value
        self.tree.update(key, value)

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
    def members_are_brute_force_groupings(self):
        """At every level, root to leaf, a bucket's members are exactly the
        keys whose digest prefix names it, in ``repr`` order, and their
        entry digests XOR to the bucket's digest."""
        rebuilt = DigestTree.from_store(self.store)
        for level in range(LEAF_LEVEL + 1):
            grouped = {}
            for key in self.store:
                grouped.setdefault(stable_digest(key) >> 64 - 4 * level,
                                   set()).add(key)
            members = self.tree.members(level, grouped)
            assert members == rebuilt.members(level, grouped)
            digests = self.tree.digests(level, grouped)
            for bucket, keys in grouped.items():
                assert list(members[bucket]) == sorted(keys, key=repr)
                folded = 0
                for digest in members[bucket].values():
                    folded ^= digest
                assert digests[bucket] == folded, (level, bucket)
        leaves = {stable_digest(key) >> 48 for key in self.store}
        assert {leaf for children in self.tree.child_digests(
                    LEAF_LEVEL - 1, {leaf >> 4 for leaf in leaves}).values()
                for leaf in children} == leaves

    @invariant()
    def parents_are_xor_of_children(self):
        for level in range(LEAF_LEVEL):
            held = self.tree._levels[level]
            occupied = [bucket for bucket, digest in enumerate(held) if digest]
            for bucket, children in self.tree.child_digests(level,
                                                            occupied).items():
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
        assert len(replica_b.tree) == 0
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
        old_leaves = survivor.tree.digests(
            LEAF_LEVEL, map(DigestTree.leaf_bucket, old_store))
        kvs.reshard(4)
        kvs.settle(200.0)
        moved = old_store - set(survivor.store)
        assert moved, "reshard moved nothing; the test needs more keys"
        moved_buckets = {DigestTree.leaf_bucket(key) for key in moved}
        new_leaves = survivor.tree.digests(LEAF_LEVEL, old_leaves)
        for bucket, digest in old_leaves.items():
            if bucket not in moved_buckets:
                assert new_leaves[bucket] == digest, bucket
        # And the incrementally-updated trees all match their stores.
        for replica in kvs.all_nodes():
            assert replica.tree == DigestTree.from_store(replica.store)

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
            assert replica.tree == DigestTree.from_store(replica.store)

    def test_dead_peer_aborts_sessions_without_wedging(self):
        """Probes to a crashed peer time out and abort the exchange; the
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
        assert replica_a.anti_entropy.in_flight <= {replica_b.node_id}
        replica_b.recover(lose_state=True)
        kvs.settle(500.0)
        assert_replicas_converged(kvs)
        assert len(replica_b.store) == 20

    def test_a_live_replica_that_recovers_opens_no_exchange(self):
        """``recover(lose_state=True)`` on a replica that never crashed
        leaves it as it is: it lost nothing, so it asks its peers nothing."""
        sim, net, kvs = build_kvs(replication=3, gossip_interval=None)
        for index in range(20):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(50.0)
        sent = net.messages_sent
        kvs.shards[0][1].recover(lose_state=True)
        kvs.settle(50.0)
        assert net.metrics.counter("kvs.antientropy.rounds") == 0
        assert net.messages_sent == sent

    def test_a_reply_to_an_exchange_lost_in_a_crash_is_void(self):
        """A replica that crashes with a probe in flight and comes back
        empty opens a new exchange with the same peer at once.  The old one
        died with the crash: the transport dropped its pending RPC, so its
        reply lands as a duplicate and changes nothing, and the new exchange
        alone refills the store — never two exchanges with one peer."""
        sim = Simulator(seed=7)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
        kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=2,
                         gossip_interval=None)
        replica_a, replica_b = kvs.shards[0]
        for index in range(30):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(50.0)
        metrics = net.metrics
        for _ in range(2):  # the old exchange, then the new one
            replica_a.crash()
            replica_a.recover(lose_state=True)
            sim.run(until=sim.now)  # its root probe leaves; no time passes
        assert metrics.counter("kvs.antientropy.rounds") == 2

        def observed():
            counters = {name: metrics.counter(name) for name in (
                "kvs.antientropy.rounds", "kvs.antientropy.aborted",
                "kvs.antientropy.converged_rounds",
                "kvs.antientropy.repair_entries")}
            return (dict(replica_a.store), net.messages_sent,
                    replica_a.transport.pending_requests, counters)

        def duplicates():
            return metrics.counter("transport.rpc_duplicate_replies")

        def step():
            stepped = sim.step()
            # A's only requests are its exchange's probes and pulls.
            assert replica_a.transport.pending_requests <= 1
            assert replica_b.transport.pending_requests == 0
            return stepped

        while not duplicates():
            before = observed()
            assert step()
        assert duplicates() == 1
        assert observed() == before
        while step():  # no cadence: the simulator goes idle
            pass
        assert replica_a.store == replica_b.store and len(replica_a.store) == 30
        assert duplicates() == 1
        assert metrics.counter("kvs.antientropy.rounds") == 2
        assert metrics.counter("kvs.antientropy.aborted") == 0

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


def settled_pair(keys=120):
    """Two converged replicas of one shard and no cadence: an exchange runs
    only when a test opens it, and the simulator goes idle after it."""
    sim, net, kvs = build_kvs(gossip_interval=None)
    for index in range(keys):
        kvs.put(f"k-{index}", SetUnion({index}))
    kvs.settle(50.0)
    replica_a, replica_b = kvs.shards[0]
    assert replica_a.store == replica_b.store and len(replica_a.store) == keys
    return sim, net, kvs


def run_exchange(sim, initiator, responder):
    """Step ``sim`` until idle, checking that the exchange never has two
    RPCs in flight.  Returns the most the initiator had at once and
    ``sent(replica, mailbox)``: the messages a replica sent to a mailbox
    meanwhile and the entries they were priced at (a digest or a pulled
    key is ``digest_entries``' share of one)."""
    before = {replica: {mailbox: dict(stats) for mailbox, stats
                        in replica.transport.mailbox_stats.items()}
              for replica in (initiator, responder)}
    most = 0
    while sim.step():
        most = max(most, initiator.transport.pending_requests)
        assert responder.transport.pending_requests == 0
    assert not initiator.anti_entropy.in_flight

    def sent(replica, mailbox):
        now = replica.transport.mailbox_stats.get(mailbox, {})
        then = before[replica].get(mailbox, {})
        return tuple(now.get(field, 0) - then.get(field, 0)
                     for field in ("messages", "entries"))

    return most, sent


def top_bucket(key):
    return DigestTree.bucket_of(stable_digest(key), 1)


class TestEmptySideSettlesByKeys:
    """A bucket one side holds empty is settled by its keys in the reply
    that finds it, not probed down to the leaves: pulls ride the chain's one
    final ``ae_pull`` and pushes leave at once.  Counts only, no clock."""

    def test_a_replica_that_lost_its_store_refills_in_one_probe_and_one_pull(self):
        sim, net, kvs = settled_pair()
        replica_a, replica_b = kvs.shards[0]
        replica_b.crash()
        replica_b.recover(lose_state=True)  # opens an exchange with A
        most, sent = run_exchange(sim, replica_b, replica_a)
        assert most == 1
        assert replica_b.store == replica_a.store
        assert sent(replica_b, "ae_probe") == (1, 1)  # the root digest, 0
        assert sent(replica_b, "ae_pull") == (1, digest_entries(120))
        assert sent(replica_b, "gossip") == (0, 0)  # it has nothing to push
        # The reply names every key: one digest per key plus the bucket.
        assert sent(replica_a, "ae_probe_reply") == (1, digest_entries(121))
        assert net.metrics.counter("kvs.antientropy.repair_entries") == 120
        # A root that differed is no converged round.
        assert net.metrics.counter("kvs.antientropy.rounds") == 1
        assert net.metrics.counter("kvs.antientropy.converged_rounds") == 0

    def test_an_exchange_toward_a_peer_that_lost_its_store_pushes_at_once(self):
        sim, net, kvs = settled_pair()
        replica_a, replica_b = kvs.shards[0]
        replica_b.reset_state()  # lost, with no exchange of its own
        replica_a.anti_entropy.start(replica_b.node_id)
        most, sent = run_exchange(sim, replica_a, replica_b)
        assert most == 1
        assert replica_b.store == replica_a.store
        assert sent(replica_a, "ae_probe") == (1, 1)
        assert sent(replica_a, "ae_pull") == (0, 0)
        assert sent(replica_a, "gossip") == (1, 120)
        # The peer answered its one differing bucket with no children.
        assert sent(replica_b, "ae_probe_reply") == (1, 1)
        assert net.metrics.counter("kvs.antientropy.repair_entries") == 120

    def test_a_bucket_the_initiator_holds_empty_is_answered_by_keys(self):
        """Below the root too: the initiator probes a top-level bucket it
        holds empty with digest 0, and the peer answers it by its keys, so
        the exchange is two probes and one pull, not a walk to the leaves."""
        sim, net, kvs = settled_pair()
        replica_a, replica_b = kvs.shards[0]
        lacked = top_bucket("k-0")
        dropped = {key for key in replica_a.store if top_bucket(key) == lacked}
        replica_a.drop_keys(dropped)
        replica_a.anti_entropy.start(replica_b.node_id)
        most, sent = run_exchange(sim, replica_a, replica_b)
        assert most == 1
        assert replica_a.store == replica_b.store and len(replica_a.store) == 120
        assert sent(replica_a, "ae_probe") == (2, 2)  # the root, then one 0
        assert sent(replica_a, "ae_pull") == (1, digest_entries(len(dropped)))
        assert sent(replica_a, "gossip") == (0, 0)

    def test_a_mixed_exchange_sends_one_pull_within_probe_rounds(self):
        """The initiator holds one top-level bucket empty, the peer another,
        and a third diverges in one key: the empty buckets settle at level
        1 while the third recurses to its leaf, and the keys pulled on the
        way down ride the one ``ae_pull`` at the end."""
        sim, net, kvs = settled_pair()
        replica_a, replica_b = kvs.shards[0]
        by_bucket = {}
        for key in sorted(replica_a.store):
            by_bucket.setdefault(top_bucket(key), []).append(key)
        lacked, missing, diverged = sorted(by_bucket)[:3]
        replica_a.drop_keys(set(by_bucket[lacked]))
        replica_b.drop_keys(set(by_bucket[missing]))
        deep = by_bucket[diverged][0]
        replica_a._merge_entry(deep, SetUnion({"a-only"}))
        replica_b._merge_entry(deep, SetUnion({"b-only"}))
        joined = replica_a.store[deep].merge(replica_b.store[deep])
        replica_a.anti_entropy.start(replica_b.node_id)
        most, sent = run_exchange(sim, replica_a, replica_b)
        assert most == 1
        probes, _ = sent(replica_a, "ae_probe")
        pulls, pulled = sent(replica_a, "ae_pull")
        assert pulls == 1
        assert pulled == digest_entries(len(by_bucket[lacked]) + 1)
        assert probes == LEAF_LEVEL + 1 and probes + pulls <= PROBE_ROUNDS
        # One push at level 1 (the bucket B lacks), one at the leaf.
        assert sent(replica_a, "gossip") == (2, len(by_bucket[missing]) + 1)
        assert replica_a.store == replica_b.store and len(replica_a.store) == 120
        assert replica_a.store[deep] == joined
