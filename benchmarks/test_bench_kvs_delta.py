"""E13 — O(delta) KVS writes: in-place lattice merges + delta-state gossip.

Quantifies the two halves of the mutation protocol against the seed
implementation and emits the numbers machine-readably to
``benchmarks/out/BENCH_kvs.json`` so the perf trajectory is tracked across PRs:

* **Put throughput**: the seed's immutable put (`MapLattice.insert` — full
  dict copy plus re-validation of every value, O(store) per put) vs. the
  in-place `ShardNode.merge_local` (O(changed entry) per put), like-for-like
  under pytest-benchmark at 1k- and 5k-key store sizes.
* **Gossip bytes per round**: full-store snapshot gossip vs. delta gossip
  (only entries stamped since the last window shipped to the peer), measured
  via the network simulator's honest entry-count byte accounting.
* **Anti-entropy tier**: digest-tree reconciliation vs. the old periodic
  full-store sync — idle repair bytes at 5k/50k-key converged stores (the
  O(store) → O(1) cut), divergence-proportional repair bytes, and the
  repair traffic + reconvergence time after a state-losing crash.
"""

import itertools

import pytest

from conftest import emit_bench, print_rows
from repro.cluster import Network, NetworkConfig, Simulator, wire_size
from repro.lattices import GCounter, MapLattice, SetUnion
from repro.storage import LatticeKVS
from repro.storage.kvs import ShardNode

PUTS_PER_ROUND = 100
RESULTS: dict = {"put_throughput": [], "gossip_bytes_per_round": [],
                 "anti_entropy": []}


def seed_immutable_put(store_map, key, value):
    """The seed's O(store) put path, reproduced verbatim in cost.

    ``ReplicaNode.merge_local`` used to run ``store.insert(key, value)`` =
    ``store.merge(MapLattice({key: value}))``: one full dict copy for the
    merge plus a second copy *and* an isinstance check of every value inside
    the public ``MapLattice`` constructor.
    """
    merged = dict(store_map.entries)
    current = merged.get(key)
    merged[key] = value if current is None else current.merge(value)
    return MapLattice(merged)


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


def record_throughput(store_size, mode, mean_s):
    ops_per_s = PUTS_PER_ROUND / mean_s
    RESULTS["put_throughput"].append(
        {"store_size": store_size, "mode": mode,
         "mean_s_per_put": mean_s / PUTS_PER_ROUND, "puts_per_s": ops_per_s})
    print_rows(
        f"E13: {mode} put path at {store_size}-key store",
        ["store size", "mode", "puts/sec"],
        [[store_size, mode, f"{ops_per_s:,.0f}"]],
    )


@pytest.mark.parametrize("store_size", [1000, 5000])
def test_put_throughput_seed_immutable(benchmark, store_size):
    base = MapLattice(prefill_entries(store_size))
    # A strictly growing counter value per put, so every put does real merge
    # work (a stale value would be leq-suppressed / absorbed as a no-op,
    # measuring nothing).  Same write stream shape as the in-place test.
    ticks = itertools.count(2)

    def run():
        store = base
        for index in range(PUTS_PER_ROUND):
            store = seed_immutable_put(store, f"key-{index % store_size}",
                                       GCounter({"writer": next(ticks)}))
        return len(store)

    size = benchmark(run)
    assert size == store_size
    record_throughput(store_size, "seed-immutable", benchmark.stats.stats.mean)


@pytest.mark.parametrize("store_size", [1000, 5000])
def test_put_throughput_in_place(benchmark, store_size):
    node = build_replica(store_size)
    ticks = itertools.count(2)

    def run():
        for index in range(PUTS_PER_ROUND):
            node.merge_local(f"key-{index % store_size}",
                             GCounter({"writer": next(ticks)}))
        return len(node.store)

    size = benchmark(run)
    assert size == store_size
    record_throughput(store_size, "in-place", benchmark.stats.stats.mean)


@pytest.mark.parametrize("store_size", [500, 2000, 5000])
def test_gossip_bytes_per_round(store_size):
    """Bytes on the wire for one gossip round, snapshot vs. delta, after the
    same 50-key write burst against a converged ``store_size``-key store."""
    writes = 50
    measured = {}
    for mode in ("delta", "snapshot"):
        simulator = Simulator(seed=17)
        network = Network(simulator, NetworkConfig(base_delay=0.5, jitter=0.2))
        kvs = LatticeKVS(simulator, network, shard_count=1, replication_factor=2,
                         gossip_interval=20.0, gossip_mode=mode,
                         full_sync_every=10 ** 6)
        replica_a, _ = kvs.shards[0]
        for index in range(store_size):
            replica_a.merge_local(f"k-{index}", SetUnion({index}))
        kvs.settle(300.0)
        before = network.bytes_sent
        replica_a._gossip_tick()
        measured[f"{mode}_idle"] = network.bytes_sent - before
        for index in range(writes):
            replica_a.merge_local(f"k-{index}", SetUnion({f"fresh-{index}"}))
        before = network.bytes_sent
        replica_a._gossip_tick()
        measured[mode] = network.bytes_sent - before

    ratio = measured["snapshot"] / max(measured["delta"], 1)
    RESULTS["gossip_bytes_per_round"].append(
        {"store_size": store_size, "writes_in_round": writes,
         "snapshot_bytes": measured["snapshot"], "delta_bytes": measured["delta"],
         "delta_idle_bytes": measured["delta_idle"], "snapshot_over_delta": ratio})
    print_rows(
        f"E13: gossip bytes per round, {store_size}-key store, {writes} fresh writes",
        ["store size", "snapshot B", "delta B", "delta idle B", "snapshot/delta"],
        [[store_size, measured["snapshot"], measured["delta"],
          measured["delta_idle"], f"{ratio:.1f}x"]],
    )
    assert measured["snapshot"] >= wire_size(store_size)
    assert measured["delta"] <= wire_size(writes)
    assert measured["delta_idle"] == 0


def converged_pair(store_size, seed=11):
    """A converged, quiesced 2-replica shard with manual gossip ticks.

    ``full_sync_every=1`` makes every manual tick an anti-entropy round, and
    ``gossip_interval=None`` keeps timers out of byte measurements.
    """
    simulator = Simulator(seed=seed)
    network = Network(simulator, NetworkConfig(base_delay=0.5, jitter=0.2))
    kvs = LatticeKVS(simulator, network, shard_count=1, replication_factor=2,
                     gossip_interval=None, gossip_mode="delta",
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
    RESULTS["anti_entropy"].append(
        {"kind": "lose_state", "store_size": store_size,
         "repair_bytes": repair, "reconverge_ticks": ticks})
    print_rows(
        f"E13: digest repair after lose-state crash, {store_size}-key store",
        ["store size", "repair B", "reconverge ticks"],
        [[store_size, repair, ticks]],
    )
    assert network.metrics.counter("kvs.gossip.full_rounds") == 0
    # Divergence-proportional: the lost entries (pushed and/or pulled by the
    # two concurrent sessions) plus digest recursion overhead.
    assert repair < 4 * wire_size(store_size)


def test_zz_acceptance_and_emit_json():
    """Checks the PR's acceptance numbers and writes ``benchmarks/out/BENCH_kvs.json``.

    Named to sort after the measurement tests (pytest runs files in
    definition order, so this is belt-and-braces for external runners).
    """
    throughput = {(row["store_size"], row["mode"]): row["puts_per_s"]
                  for row in RESULTS["put_throughput"]}
    speedups = {
        size: throughput[(size, "in-place")] / throughput[(size, "seed-immutable")]
        for size in (1000, 5000)
        if (size, "in-place") in throughput and (size, "seed-immutable") in throughput
    }
    gossip = {row["store_size"]: row for row in RESULTS["gossip_bytes_per_round"]}

    summary = {
        "bench": "kvs_delta",
        "puts_per_round": PUTS_PER_ROUND,
        "put_throughput": RESULTS["put_throughput"],
        "put_speedup_in_place_over_seed": speedups,
        "gossip_bytes_per_round": RESULTS["gossip_bytes_per_round"],
        "anti_entropy": RESULTS["anti_entropy"],
    }
    emit_bench("kvs", summary)

    print_rows(
        "E13: in-place put speedup over seed immutable path",
        ["store size", "speedup"],
        [[size, f"{value:.1f}x"] for size, value in sorted(speedups.items())],
    )
    # Acceptance: >= 5x at the 5k-key store, and the snapshot/delta byte
    # ratio grows with store size (the delta win is superlinear).
    assert speedups.get(5000, 0) >= 5.0
    if len(gossip) >= 2:
        ratios = [gossip[size]["snapshot_over_delta"] for size in sorted(gossip)]
        assert ratios == sorted(ratios)
        assert ratios[-1] / ratios[0] > 2.0

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
