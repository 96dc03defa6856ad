"""The benchmark's fixed vocabulary: workloads, metrics, layers.

Every later change in ROADMAP is accepted or rejected against these names,
so they live in one place and nothing else spells them.  ``BENCHMARK.json``
at the repo root restates the subset the driver contract can carry (see
README "What BENCHMARK.json carries"); ``test_e2e_smoke.py`` pins the two
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: ``--seconds`` at which the four op counts below are used unscaled.  The
#: counts were sized (ISSUE 13) so each untraced load phase takes 10-25
#: CPU-s on the 2-core reference host; a run asked to measure for ``S``
#: seconds scales all four by the one factor ``S / FULL_SCALE_SECONDS``, so
#: run length is a pure function of the argument and every tick, byte and
#: count metric repeats exactly for a given ``(seed, seconds)``.
FULL_SCALE_SECONDS = 15.0

#: An op not completed this many ticks after issue counts as failed and
#: the client moves on.
OP_DEADLINE_TICKS = 60.0

#: The share of ops the traced run replays (and the point at which the
#: untraced run takes its like-for-like CPU mark).
TRACED_SHARE = 0.25

#: A latency class with fewer samples than this reports p50 only.
P99_MIN_SAMPLES = 1000

#: The two interpreter hash seeds CI pins; every exact metric must agree
#: under both.
HASH_SEEDS = ("1", "31337")


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int  # at FULL_SCALE_SECONDS
    why: str


WORKLOADS = (
    Workload(
        "kvs_geo_mixed", 60_000,
        "80k uniform keys (> the 65,536-entry digest memo), 50/50 put/get of "
        "LWW registers on the priced geo matrix: every KVS layer and the "
        "whole link model work, and no cache fits."),
    Workload(
        "kvs_flat_read", 150_000,
        "2k Pareto-hot keys, 95% get, link model off: storage, gossip and "
        "link pricing idle, so client-RPC-transport-heap is the whole cost; "
        "a storage or link-model change must show no move here."),
    Workload(
        "kvs_churn_repair", 20_000,
        "80% put of growing SetUnions under 5% drops, rotating lose-state "
        "crashes and a bandwidth squeeze: retransmission, digest-tree "
        "repair, RPC retry and link queues carry the run."),
    Workload(
        "pact_covid", 600,
        "The paper's COVID tracker compiled by Hydrolysis onto 3 AZs: "
        "interpreter, replica gossip, proxy and the Paxos log for vaccinate "
        "do the work; the KVS storage layer is bypassed."),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def scaled_ops(workload: str, seconds: float) -> int:
    base = next(w.ops for w in WORKLOADS if w.name == workload)
    return max(8, round(base * seconds / FULL_SCALE_SECONDS))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Relative regression bound; ``None`` for per-layer metrics.
    bound: Optional[float] = None
    #: Exact metrics are functions of (seed, seconds) alone and must repeat
    #: bit-for-bit, across runs and across the pinned hash seeds.
    exact: bool = True


#: The 13 end-to-end metrics of ISSUE 13, in its order.  ``bound`` here is
#: the issue's; BENCHMARK.json may carry a wider one where ten different
#: seeds spread further than a third of it (see README).
END_TO_END = (
    Metric("host_ops_per_cpu_s", "1/s", "higher", 0.10, exact=False),
    Metric("setup_s", "s", "lower", 0.15, exact=False),
    Metric("peak_rss_mb", "MB", "lower", 0.10, exact=False),
    Metric("write_p50_ticks", "ticks", "lower", 0.02),
    Metric("write_p99_ticks", "ticks", "lower", 0.02),
    Metric("read_p50_ticks", "ticks", "lower", 0.02),
    Metric("read_p99_ticks", "ticks", "lower", 0.02),
    Metric("coord_p50_ticks", "ticks", "lower", 0.02),
    Metric("sim_ops_per_ktick", "1/ktick", "higher", 0.02),
    Metric("wire_bytes_per_op", "B", "lower", 0.02),
    Metric("failed_ops_share", "share", "lower", 0.002),
    Metric("stale_reads_share", "share", "lower", 0.002),
    Metric("converge_ticks", "ticks", "lower", 0.05),
)

#: End-to-end metrics that are a number above zero on every workload — the
#: only ones the driver contract can bound.  The rest are ``null`` on some
#: workload or legitimately 0, and ride in the per-layer list as ``e2e.*``.
CONTRACT_END_TO_END = (
    "host_ops_per_cpu_s", "setup_s", "peak_rss_mb", "write_p50_ticks",
    "read_p50_ticks", "sim_ops_per_ktick", "wire_bytes_per_op",
)

#: Layer name -> path prefixes under ``src/repro/``.  First match wins, so
#: the specific files precede their package.
LAYERS = (
    ("cluster.simulator", ("cluster/simulator.py",)),
    ("cluster.network", ("cluster/network.py",)),
    ("cluster.transport", ("cluster/transport.py",)),
    ("cluster.node", ("cluster/node.py",)),
    ("cluster.metrics", ("cluster/metrics.py",)),
    ("storage.client", ("storage/client.py",)),
    ("storage.kvs", ("storage/kvs.py",)),
    ("storage.antientropy", ("storage/antientropy.py",)),
    ("storage.ring", ("storage/ring.py",)),
    ("lattices", ("lattices/",)),
    ("apps.covid", ("apps/covid.py",)),
    ("core", ("core/",)),
    ("availability", ("availability/",)),
    ("consistency.paxos", ("consistency/paxos.py",)),
    ("compiler", ("compiler/", "placement/")),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Where profile time that belongs to no layer goes.
DRIVER_LAYER = "bench.driver"
OTHER_LAYER = "other"


def _share(layer: str) -> Metric:
    return Metric(f"{layer}.self_cpu_share", "share", "lower", exact=False)


def _count(name: str, unit: str = "count", better: str = "lower") -> Metric:
    return Metric(name, unit, better)


PER_LAYER = (
    _count("cluster.simulator.events_per_op"),
    _count("cluster.simulator.peak_pending"),
    _share("cluster.simulator"),
    _count("cluster.network.envelopes_per_op"),
    _count("cluster.network.bytes_per_envelope", "B"),
    _count("cluster.network.dropped_share", "share"),
    _count("cluster.network.queue_wait_ticks_per_op", "ticks"),
    _count("cluster.network.nic_wait_ticks_per_op", "ticks"),
    _count("cluster.network.serialization_ticks_per_op", "ticks"),
    _count("cluster.network.delivery_p99_ticks", "ticks"),
    _share("cluster.network"),
    _count("cluster.transport.parcels_per_envelope", better="higher"),
    _count("cluster.transport.header_bytes_saved_per_op", "B", "higher"),
    _count("cluster.transport.rpc_retries_per_op"),
    _count("cluster.transport.rpc_timeouts_per_op"),
    _count("cluster.transport.rpc_duplicate_share", "share"),
    _share("cluster.transport"),
    _share("cluster.node"),
    _count("cluster.metrics.latency_samples_held"),
    _share("cluster.metrics"),
    _count("storage.client.session_entries"),
    _share("storage.client"),
    _count("storage.kvs.dirty_marks_per_write"),
    _count("storage.kvs.fresh_entries_per_write"),
    _count("storage.kvs.retransmit_share", "share"),
    _count("storage.kvs.full_rounds"),
    _share("storage.kvs"),
    _count("storage.antientropy.rounds"),
    _count("storage.antientropy.converged_round_share", "share", "higher"),
    _count("storage.antientropy.repair_entries_per_lost_entry"),
    _count("storage.antientropy.aborted_share", "share"),
    _count("storage.antientropy.tree_updates_per_write"),
    _share("storage.antientropy"),
    _count("storage.ring.digest_cache_hit_rate", "share", "higher"),
    _share("storage.ring"),
    _count("lattices.merge_calls_per_write"),
    _share("lattices"),
    _count("core.interpreter.ticks_per_op"),
    _count("core.state.snapshots_per_op"),
    _share("core"),
    _share("apps.covid"),
    _count("availability.proxy.retries_per_op"),
    _count("availability.replication.gossip_entries_per_op"),
    _share("availability"),
    _count("consistency.paxos.messages_per_commit"),
    _share("consistency.paxos"),
    Metric("compiler.compile_s", "s", "lower", exact=False),
    _share("compiler"),
    Metric("bench.driver_self_cpu_share", "share", "lower", exact=False),
    Metric("other.self_cpu_share", "share", "lower", exact=False),
    Metric("bench.trace_overhead_ratio", "ratio", "lower", exact=False),
) + tuple(
    Metric(f"e2e.{m.name}", m.unit, m.better)
    for m in END_TO_END if m.name not in CONTRACT_END_TO_END
)
