"""E13 — O(delta) KVS writes: in-place lattice merges + delta-state gossip.

Asserts deterministic O(Δ) floors on both halves of the mutation protocol
and emits the numbers machine-readably to ``benchmarks/out/BENCH_kvs.json``
so the perf trajectory is tracked across PRs:

* **Put cost**: bytes ``tracemalloc`` sees allocated by 100 in-place
  ``ShardNode.merge_local`` puts are the same at a 1k- and a 20k-key store
  (O(changed entry), not O(store)); the pytest-benchmark puts/s at 1k and 5k
  keys are printed, never asserted.
* **Gossip bytes per round**: one round after a 50-key burst ships the same
  bytes at every store size, at most ``wire_size(50)``, and an idle round
  ships nothing — measured via the network simulator's entry-count byte
  accounting.
* **Anti-entropy tier**: digest-tree reconciliation vs. the old periodic
  full-store sync — idle repair bytes at 5k/50k-key converged stores (the
  O(store) → O(1) cut), divergence-proportional repair bytes, and the
  repair traffic + reconvergence time after a state-losing crash.
* **Entry hashes per replicated put**: the digest-tree entries hashed
  (value folds, counted under ``cProfile``) per client put at replication
  3: one, because the other two replicas reuse the entry the shared value
  remembers (three when every replica hashed it).

The baselines these replaced are frozen in the repo-root ``BENCH_kvs.json``:
the seed's immutable ``MapLattice.insert`` put (in-place is 122x its puts/s
at 5k keys) and full-store snapshot gossip (99.5x delta's bytes at 5k keys).
"""

import cProfile
import gc
import itertools
import tracemalloc

import pytest

from conftest import emit_bench, print_rows
from repro.cluster import Network, NetworkConfig, Simulator, wire_size
from repro.cluster.transport import fold_payload
from repro.lattices import GCounter, LWWRegister, SetUnion
from repro.storage import KVSClient, LatticeKVS
from repro.storage import antientropy
from repro.storage.kvs import ShardNode

PUTS_PER_ROUND = 100
RESULTS: dict = {"put_throughput": [], "put_alloc_bytes": {},
                 "gossip_bytes_per_round": [], "anti_entropy": []}


def prefill_entries(count):
    return {f"key-{i}": GCounter({"seed-writer": 1}) for i in range(count)}


def build_replica(prefill):
    simulator = Simulator(seed=3)
    network = Network(simulator, NetworkConfig())
    node = ShardNode("bench-replica", simulator, network,
                     peers=["bench-replica", "peer-1", "peer-2"])
    for key, value in prefill_entries(prefill).items():
        node.merge_local(key, value)
    return node


@pytest.mark.parametrize("store_size", [1000, 5000])
def test_put_throughput_in_place(benchmark, store_size):
    """Wall-clock puts/s, printed for the trajectory and never asserted."""
    node = build_replica(store_size)
    # A strictly growing counter value per put, so every put does real merge
    # work (a stale value would be leq-suppressed as a no-op, measuring
    # nothing).
    ticks = itertools.count(2)

    def run():
        for index in range(PUTS_PER_ROUND):
            node.merge_local(f"key-{index % store_size}",
                             GCounter({"writer": next(ticks)}))
        return len(node.store)

    size = benchmark(run)
    assert size == store_size
    mean_s = benchmark.stats.stats.mean
    ops_per_s = PUTS_PER_ROUND / mean_s
    RESULTS["put_throughput"].append(
        {"store_size": store_size, "mode": "in-place",
         "mean_s_per_put": mean_s / PUTS_PER_ROUND, "puts_per_s": ops_per_s})
    print_rows(
        f"E13: in-place put path at {store_size}-key store",
        ["store size", "puts/sec"],
        [[store_size, f"{ops_per_s:,.0f}"]],
    )


def put_alloc_bytes(store_size):
    """Peak bytes allocated by ``PUTS_PER_ROUND`` in-place puts into a fresh
    ``store_size``-key replica.  The write stream is built beforehand so only
    the put path is traced, and the collector is off (as under ``timeit``)
    so a collection landing mid-run cannot move the peak."""
    node = build_replica(store_size)
    writes = [(f"key-{index % store_size}", GCounter({"writer": index + 2}))
              for index in range(PUTS_PER_ROUND)]
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key, value in writes:
            node.merge_local(key, value)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        gc.enable()


ALLOC_BASELINE_STORE = 1000


@pytest.mark.parametrize("store_size", [5000, 20_000])
def test_put_allocation_is_o_delta(store_size):
    """A put allocates for the entry it changes, not for the store: 100 puts
    at a ``store_size``-key store allocate at most 1.1x what they do at 1k
    keys."""
    alloc = RESULTS["put_alloc_bytes"]
    for size in (ALLOC_BASELINE_STORE, store_size):
        alloc.setdefault(size, put_alloc_bytes(size))
    print_rows(
        f"E13: bytes allocated by {PUTS_PER_ROUND} in-place puts",
        ["store size", "allocated B"],
        [[size, f"{alloc[size]:,}"]
         for size in (ALLOC_BASELINE_STORE, store_size)],
    )
    assert alloc[store_size] <= 1.1 * alloc[ALLOC_BASELINE_STORE], alloc


GOSSIP_WRITES = 50


def gossip_round_bytes(store_size, writes=GOSSIP_WRITES):
    """``(idle, delta)`` bytes of one gossip round on a converged
    ``store_size``-key store: with nothing written, then after a
    ``writes``-key burst."""
    simulator = Simulator(seed=17)
    network = Network(simulator, NetworkConfig(base_delay=0.5, jitter=0.2))
    kvs = LatticeKVS(simulator, network, shard_count=1, replication_factor=2,
                     gossip_interval=20.0, full_sync_every=10 ** 6)
    replica_a, _ = kvs.shards[0]
    for index in range(store_size):
        replica_a.merge_local(f"k-{index}", SetUnion({index}))
    kvs.settle(300.0)
    before = network.bytes_sent
    replica_a._gossip_tick()
    idle = network.bytes_sent - before
    for index in range(writes):
        replica_a.merge_local(f"k-{index}", SetUnion({f"fresh-{index}"}))
    before = network.bytes_sent
    replica_a._gossip_tick()
    return idle, network.bytes_sent - before


@pytest.mark.parametrize("store_size", [500, 2000, 5000])
def test_gossip_bytes_per_round(store_size):
    """Bytes on the wire for one gossip round after the same 50-key write
    burst against a converged store: identical to a round on a store that
    holds only the written keys."""
    writes = GOSSIP_WRITES
    idle, delta = gossip_round_bytes(store_size)
    _, reference = gossip_round_bytes(writes)
    RESULTS["gossip_bytes_per_round"].append(
        {"store_size": store_size, "writes_in_round": writes,
         "delta_bytes": delta, "delta_idle_bytes": idle})
    print_rows(
        f"E13: gossip bytes per round, {store_size}-key store, "
        f"{writes} fresh writes",
        ["store size", "delta B", "delta idle B", f"{writes}-key store B"],
        [[store_size, delta, idle, reference]],
    )
    assert delta == reference
    assert delta <= wire_size(writes)
    assert idle == 0


def converged_pair(store_size, seed=11):
    """A converged, quiesced 2-replica shard with manual gossip ticks.

    ``full_sync_every=1`` makes every manual tick an anti-entropy round, and
    ``gossip_interval=None`` keeps timers out of byte measurements.
    """
    simulator = Simulator(seed=seed)
    network = Network(simulator, NetworkConfig(base_delay=0.5, jitter=0.2))
    kvs = LatticeKVS(simulator, network, shard_count=1, replication_factor=2,
                     gossip_interval=None,
                     full_sync_every=1)
    replica_a, replica_b = kvs.shards[0]
    for index in range(store_size):
        replica_a.merge_local(f"k-{index}", SetUnion({index}))
    for _ in range(4):  # ship the stamped backlog, let its acks land
        replica_a._gossip_tick()
        replica_b._gossip_tick()
        simulator.run(until=simulator.now + 30.0)
    assert len(replica_b.store) == store_size
    return simulator, network, kvs


def ticks_until_healed(simulator, kvs, probe_keys, limit=150):
    """Drive anti-entropy rounds until ``probe_keys`` agree on both replicas;
    returns the simulated time the repair took."""
    replica_a, replica_b = kvs.shards[0]
    start = simulator.now
    for _ in range(limit):
        if all(replica_b.store.get(key) == replica_a.store.get(key)
               for key in probe_keys):
            return simulator.now - start
        replica_a._gossip_tick()
        replica_b._gossip_tick()
        simulator.run(until=simulator.now + 5.0)
    raise AssertionError(f"anti-entropy did not heal within {limit} rounds")


@pytest.mark.parametrize("store_size", [5000, 50_000])
def test_anti_entropy_idle_bytes(store_size):
    """One idle anti-entropy round on a converged store: a root probe and an
    empty reply, vs. the old protocol's full-store round at the same spot."""
    simulator, network, kvs = converged_pair(store_size)
    replica_a, _ = kvs.shards[0]
    before = network.bytes_sent
    replica_a._gossip_tick()
    simulator.run(until=simulator.now + 20.0)
    idle = network.bytes_sent - before
    baseline = wire_size(store_size)  # what the full-store sync shipped here
    cut = baseline / max(idle, 1)
    RESULTS["anti_entropy"].append(
        {"kind": "idle", "store_size": store_size, "idle_bytes": idle,
         "full_sync_baseline_bytes": baseline, "idle_cut": cut})
    print_rows(
        f"E13: idle anti-entropy round, {store_size}-key converged store",
        ["store size", "digest B", "full-sync B", "cut"],
        [[store_size, idle, baseline, f"{cut:,.0f}x"]],
    )
    assert 0 < idle <= 2 * wire_size(1)


@pytest.mark.parametrize("diverged", [50, 500])
def test_anti_entropy_repair_scales_with_divergence(diverged):
    """Repair bytes after silent divergence (deltas suppressed, digests the
    only healer) scale with the number of differing keys, not store size."""
    store_size = 50_000
    simulator, network, kvs = converged_pair(store_size)
    replica_a, replica_b = kvs.shards[0]
    probe_keys = [f"k-{index}" for index in range(diverged)]
    for key in probe_keys:
        # Merged the way a peer's entry is — unstamped, so no window carries
        # it and only digests can heal.
        replica_a._merge_entry(key, SetUnion({f"fresh-{key}"}))
    before = network.bytes_sent
    ticks = ticks_until_healed(simulator, kvs, probe_keys)
    repair = network.bytes_sent - before
    RESULTS["anti_entropy"].append(
        {"kind": "repair", "store_size": store_size, "diverged": diverged,
         "repair_bytes": repair, "reconverge_ticks": ticks})
    print_rows(
        f"E13: digest repair of {diverged} diverged keys in a "
        f"{store_size}-key store",
        ["store size", "diverged", "repair B", "reconverge ticks"],
        [[store_size, diverged, repair, ticks]],
    )
    # O(divergence): nowhere near a full-store round.
    assert repair < wire_size(store_size) / 4
    assert repair >= wire_size(diverged)  # the differing keys did ship


def test_anti_entropy_lose_state_repair():
    """A state-losing crash is the worst-case divergence (the whole store);
    repair traffic is proportional to what was lost and converges within a
    handful of rounds — with zero full-store escalations."""
    store_size = 5000
    simulator, network, kvs = converged_pair(store_size)
    replica_a, replica_b = kvs.shards[0]
    replica_b.crash()
    replica_b.recover(lose_state=True)
    assert replica_b.store == {}
    probe_keys = [f"k-{index}" for index in range(0, store_size, 97)]
    before = network.bytes_sent
    ticks = ticks_until_healed(simulator, kvs, probe_keys)
    repair = network.bytes_sent - before
    assert len(replica_b.store) == store_size
    ratio = repair / wire_size(store_size)
    RESULTS["anti_entropy"].append(
        {"kind": "lose_state", "store_size": store_size,
         "repair_bytes": repair, "wire_size_ratio": ratio,
         "reconverge_ticks": ticks})
    print_rows(
        f"E13: digest repair after lose-state crash, {store_size}-key store",
        ["store size", "repair B", "x wire_size", "reconverge ticks"],
        [[store_size, repair, f"{ratio:.2f}", ticks]],
    )
    # Divergence-proportional: the lost entries (pushed by A's session and
    # pulled by B's, each settled by keys in its first reply) plus the keys'
    # digests.  1,120,584 B (2.33x) measured; 3.67x when an empty side's
    # buckets were probed down to the leaves.
    assert repair < 2.4 * wire_size(store_size)


REPLICATED_PUTS = 500


def test_entry_hashes_per_replicated_put():
    """Client puts into a settled 1-shard, 3-replica KVS, half of them
    superseding an earlier put: each value's digest-tree entry is hashed by
    one replica and reused by the other two."""
    simulator = Simulator(seed=5)
    network = Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
    kvs = LatticeKVS(simulator, network, shard_count=1, replication_factor=3,
                     gossip_interval=20.0)
    kvs.settle(50.0)
    client = KVSClient("bench-client", simulator, network, kvs)
    profile = cProfile.Profile()
    profile.enable()
    for index in range(REPLICATED_PUTS):
        client.put(f"key-{index % (REPLICATED_PUTS // 2)}",
                   LWWRegister(float(index), index, "writer"))
    kvs.settle(300.0)
    profile.disable()
    hashes = sum(call.callcount for entry in profile.getstats()
                 if getattr(entry.code, "co_filename", "") == antientropy.__file__
                 for call in entry.calls or ()
                 if call.code is fold_payload.__code__)
    per_put = hashes / REPLICATED_PUTS
    RESULTS["entry_hashes_per_replicated_put"] = per_put
    print_rows(
        f"E13: digest-tree entry hashes per put, {REPLICATED_PUTS} client "
        "puts at replication 3",
        ["puts", "entry hashes", "per put"],
        [[REPLICATED_PUTS, hashes, f"{per_put:.2f}"]],
    )
    assert per_put <= 1.0


def test_zz_acceptance_and_emit_json():
    """Checks the PR's acceptance numbers and writes ``benchmarks/out/BENCH_kvs.json``.

    Named to sort after the measurement tests (pytest runs files in
    definition order, so this is belt-and-braces for external runners).
    """
    summary = {
        "bench": "kvs_delta",
        "puts_per_round": PUTS_PER_ROUND,
        "put_throughput": RESULTS["put_throughput"],
        "put_alloc_bytes": RESULTS["put_alloc_bytes"],
        "gossip_bytes_per_round": RESULTS["gossip_bytes_per_round"],
        "anti_entropy": RESULTS["anti_entropy"],
        "entry_hashes_per_replicated_put":
            RESULTS.get("entry_hashes_per_replicated_put"),
    }
    emit_bench("kvs", summary)

    # Anti-entropy acceptance: >= 20x idle-byte cut over the full-store
    # baseline at the 50k-key store, and repair bytes that scale with
    # divergence (500 diverged keys cost well under 15x the 50-key repair,
    # both far below a full-store round).
    idle = {row["store_size"]: row for row in RESULTS["anti_entropy"]
            if row["kind"] == "idle"}
    repair = {row["diverged"]: row for row in RESULTS["anti_entropy"]
              if row["kind"] == "repair"}
    if 50_000 in idle:
        assert idle[50_000]["idle_cut"] >= 20.0
    if {50, 500} <= set(repair):
        assert (repair[500]["repair_bytes"]
                < 15 * repair[50]["repair_bytes"])
        assert repair[500]["repair_bytes"] < wire_size(50_000) / 4
