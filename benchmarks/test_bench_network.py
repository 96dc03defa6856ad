"""E15 — Bytes take time: delivery latency under the link bandwidth model.

The E2 ablation argues coordination cost in messages and bytes; this bench
makes the bytes argument *temporal*.  With the per-link transmission model
on, an envelope serializes for ``bytes/bandwidth`` ticks and queues every
later one on the link behind it; delta gossip ships only the changed keys,
so its windows stay small enough that a finite pipe barely delays them.

The workload: one fully-replicated shard pre-loaded with ``STORE_KEYS``
keys, then a steady put trickle while gossip runs for several intervals.
Measured at three bandwidth tiers (unconstrained = model off, mid,
constrained), reporting the p50/p99 of per-message delivery latency
(``net.delivery``, stamped by the network on every delivered message) to
``benchmarks/out/BENCH_network.json`` for the CI artifact trail.

Asserted floor: at the **constrained** tier (512 B/tick) the p99 delivery
latency is at most half a tick above the unconstrained tier's — the write
stream's bytes fit the pipe (deterministic at seed 11: 1.234 vs 1.0).

Full-store snapshot gossip, the baseline this bench once measured against,
is frozen in the repo-root ``BENCH_network.json``: its constrained-tier p99
was 155.6 ticks, 126.1x delta's, because its link never drained its backlog.
"""

from conftest import emit_bench, print_rows
from repro.cluster import Network, NetworkConfig, Simulator
from repro.lattices import SetUnion
from repro.placement import locality_aware_domain, naive_domain
from repro.placement.geo import GEO_NIC_BANDWIDTH, geo_delay_matrix
from repro.storage import LatticeKVS

#: Bandwidth tiers in bytes/tick (None = model off; the pre-model network).
TIERS = (("unconstrained", None), ("mid", 4096.0), ("constrained", 512.0))
#: Keys pre-loaded into the shard before the measurement window.
STORE_KEYS = 250
#: Puts trickled during the measurement window.
MEASURED_PUTS = 40
#: Gossip cadence and the number of intervals measured.
GOSSIP_INTERVAL = 20.0
MEASURED_INTERVALS = 15
#: Ticks the constrained tier's p99 may sit above the unconstrained tier's.
CONSTRAINED_P99_SLACK = 0.5

RESULTS: dict = {"tiers": []}


def run_tier(bandwidth) -> dict:
    sim = Simulator(seed=11)
    # Seed phase runs with the model off so every tier starts from an
    # identical converged store.
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
    kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=3,
                     gossip_interval=GOSSIP_INTERVAL, full_sync_every=50)
    for index in range(STORE_KEYS):
        kvs.put(f"key-{index}", SetUnion({f"seed-{index}"}))
    kvs.settle(200.0)

    # Measurement phase: price the links, clear the recorder, trickle puts.
    # Byte/envelope counters are reported as deltas over this window, not
    # cumulatively — the seed phase must not pollute the tier comparison.
    net.config.bandwidth = bandwidth
    net.record_delivery_latency = True  # the model-off tier records too
    recorder = net.metrics.latency("net.delivery")
    del recorder.samples[:]
    bytes_before = net.bytes_sent
    envelopes_before = net.messages_sent
    start = sim.now
    for index in range(MEASURED_PUTS):
        fire = start + index * (GOSSIP_INTERVAL * MEASURED_INTERVALS
                                / MEASURED_PUTS)
        sim.schedule_at(
            fire,
            lambda i=index: kvs.put(f"key-{i % STORE_KEYS}",
                                    SetUnion({f"update-{i}"})),
            label=f"bench put-{index}")
    sim.run(until=start + GOSSIP_INTERVAL * MEASURED_INTERVALS)
    return {
        "p50": round(recorder.p50, 3),
        "p99": round(recorder.p99, 3),
        "mean": round(recorder.mean, 3),
        "deliveries": recorder.count,
        "bytes_sent": net.bytes_sent - bytes_before,
        "envelopes": net.messages_sent - envelopes_before,
    }


def test_constrained_bandwidth_barely_delays_delta_gossip():
    p99 = {}
    for tier_name, bandwidth in TIERS:
        measured = run_tier(bandwidth)
        measured.update({"tier": tier_name, "bandwidth": bandwidth})
        RESULTS["tiers"].append(measured)
        p99[tier_name] = measured["p99"]

    gap = round(p99["constrained"] - p99["unconstrained"], 3)
    assert gap <= CONSTRAINED_P99_SLACK, (
        f"constrained p99 {p99['constrained']} vs unconstrained p99 "
        f"{p99['unconstrained']} — {gap} ticks above, slack "
        f"{CONSTRAINED_P99_SLACK}")

    RESULTS["p99_constrained_minus_unconstrained"] = gap
    emit_bench("network", RESULTS)

    print_rows(
        "E15: delta gossip delivery latency x bandwidth tier",
        ["tier", "bandwidth B/tick", "p50", "p99", "bytes"],
        [[row["tier"], row["bandwidth"] or "inf", row["p50"], row["p99"],
          f"{row['bytes_sent']:,}"]
         for row in RESULTS["tiers"]],
    )


# -- geo tier: locality-aware vs naive replica placement ---------------------

#: Per-link pipe for links outside the matrix (client/default links).
GEO_BASE_BANDWIDTH = 4096.0
#: The acceptance floor: locality-aware placement must beat the naive
#: region-blind stride on p99 delivery latency by at least this factor
#: (cross-region propagation alone is 4x the intra-region delay, so the
#: measured gap sits well above this).
GEO_P99_FLOOR = 1.5


def run_geo_placement(policy) -> dict:
    """One geo run: 3 shards x 2 replicas placed by ``policy``, delta
    gossip, the full geo delay/bandwidth matrix plus shared NICs priced
    during the measurement window."""
    sim = Simulator(seed=11)
    # Seed phase with the model off: both placements start from an
    # identical converged store (placement does not change convergence).
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
    kvs = LatticeKVS(sim, net, shard_count=3, replication_factor=2,
                     gossip_interval=GOSSIP_INTERVAL,
                     full_sync_every=50, placement=policy)
    for index in range(STORE_KEYS):
        kvs.put(f"key-{index}", SetUnion({f"seed-{index}"}))
    kvs.settle(200.0)

    net.config.bandwidth = GEO_BASE_BANDWIDTH
    net.config.delay_matrix = geo_delay_matrix()
    net.config.nic_bandwidth = GEO_NIC_BANDWIDTH
    net.record_delivery_latency = True
    recorder = net.metrics.latency("net.delivery")
    del recorder.samples[:]
    bytes_before = net.bytes_sent
    start = sim.now
    for index in range(MEASURED_PUTS):
        fire = start + index * (GOSSIP_INTERVAL * MEASURED_INTERVALS
                                / MEASURED_PUTS)
        sim.schedule_at(
            fire,
            lambda i=index: kvs.put(f"key-{i % STORE_KEYS}",
                                    SetUnion({f"update-{i}"})),
            label=f"bench geo-put-{index}")
    sim.run(until=start + GOSSIP_INTERVAL * MEASURED_INTERVALS)
    return {
        "p50": round(recorder.p50, 3),
        "p99": round(recorder.p99, 3),
        "mean": round(recorder.mean, 3),
        "deliveries": recorder.count,
        "bytes_sent": net.bytes_sent - bytes_before,
    }


def test_locality_aware_placement_beats_naive_on_geo_p99():
    """E15-geo — the placement argument: on the 3-region x 2-AZ matrix,
    keeping a shard's replicas inside one region (spread over its AZs)
    beats the region-blind stride on p99 delivery latency, because quorum
    and gossip traffic rides the fat intra-region links instead of
    squeezing cross-region."""
    geo = {}
    for name, policy in (("locality", locality_aware_domain),
                         ("naive", naive_domain)):
        measured = run_geo_placement(policy)
        measured["placement"] = name
        geo[name] = measured

    ratio = geo["naive"]["p99"] / geo["locality"]["p99"]
    assert ratio >= GEO_P99_FLOOR, (
        f"locality p99 {geo['locality']['p99']} vs naive p99 "
        f"{geo['naive']['p99']} — only {ratio:.2f}x, floor {GEO_P99_FLOOR}x")
    geo["p99_naive_over_locality"] = round(ratio, 2)
    emit_bench("network", {"geo": geo})

    print_rows(
        "E15-geo: delivery latency by replica placement (geo matrix + NICs)",
        ["placement", "p50", "p99", "mean", "bytes"],
        [[row["placement"], row["p50"], row["p99"], row["mean"],
          f"{row['bytes_sent']:,}"]
         for row in (geo["locality"], geo["naive"])],
    )
