"""E14 — Unified transport: per-destination batching for Paxos (and, once, gossip).

Measures what the envelope coalescing of :mod:`repro.cluster.transport`
buys over the unbatched wire (one envelope per logical message), and emits
the numbers machine-readably to ``benchmarks/out/BENCH_transport.json`` so
the perf trajectory is tracked across PRs:

* **Paxos proposal burst**: a leader appending a block of commands in one
  instant.  Accepts, acks and decides per peer each collapse into one
  envelope, cutting the envelope count by roughly the burst size.
* **Gossip burst**: a put burst against one fully-replicated shard.  Until
  PR 20 every put fanned one ``replicate`` parcel out to every peer and the
  transport coalesced them (14x fewer envelopes; ``GOSSIP_HISTORY`` keeps
  those numbers).  Now the KVS itself ships whatever one event stamped as one
  window per peer, batching on *or* off, so the tier no longer measures the
  transport: it pins that a burst costs one window per (replica, peer) pair
  and one ack each, whatever its size.

The bench asserts the floor the acceptance criteria pin: >= 2x envelope
reduction for the Paxos block at fan-out 5.  (The leader-centric Paxos
pattern is linear in fan-out; its header-savings growth is reported for the
trajectory.)
"""

from conftest import emit_bench, print_rows
from repro.cluster import (
    Network,
    NetworkConfig,
    Simulator,
    TransportConfig,
)
from repro.consistency import ConsensusLog
from repro.lattices import SetUnion
from repro.storage import LatticeKVS


#: Fan-outs measured (peers per node).  5 is the acceptance floor.
FAN_OUTS = (2, 5)
#: Puts per replica in the gossip burst (scales with cluster size, the way
#: real load scales with capacity).
PUTS_PER_REPLICA = 40
#: Proposals in the Paxos burst.
PROPOSALS = 50

#: The gossip tier as last measured with the per-put ``replicate`` fan-out
#: (PR 18, ff0bef4) — recorded history, no longer reproducible by design.
GOSSIP_HISTORY = [
    {"fan_out": 2, "unbatched_envelopes": 252, "batched_envelopes": 18,
     "envelope_reduction": 14.0, "unbatched_bytes": 75168,
     "batched_bytes": 69552, "header_bytes_saved": 5616,
     "logical_messages": 252},
    {"fan_out": 5, "unbatched_envelopes": 1260, "batched_envelopes": 90,
     "envelope_reduction": 14.0, "unbatched_bytes": 721440,
     "batched_bytes": 693360, "header_bytes_saved": 28080,
     "logical_messages": 1260},
]

RESULTS: dict = {"gossip_history": GOSSIP_HISTORY, "gossip": [], "paxos": []}


def _measure(net):
    metrics = net.metrics
    return {
        "envelopes": net.messages_sent,
        "logical_messages": int(metrics.counter("transport.logical_messages_sent")),
        "bytes": net.bytes_sent,
        "header_bytes_saved": int(metrics.counter("transport.header_bytes_saved")),
    }


def run_gossip(fan_out: int, batching: bool) -> dict:
    """A put burst against one shard replicated across ``fan_out + 1`` nodes."""
    sim = Simulator(seed=5)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0),
                  transport=TransportConfig(batching=batching))
    kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=fan_out + 1,
                     gossip_interval=20.0)
    for index in range(PUTS_PER_REPLICA * (fan_out + 1)):
        kvs.put(f"k-{index}", SetUnion({index}))
    kvs.settle(100.0)
    return _measure(net)


def run_paxos(fan_out: int, batching: bool) -> dict:
    """A block of proposals appended in one instant at ``fan_out`` peers."""
    sim = Simulator(seed=7)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0),
                  transport=TransportConfig(batching=batching))
    log = ConsensusLog(sim, net, [f"r{i}" for i in range(fan_out + 1)])
    for index in range(PROPOSALS):
        log.append(f"cmd-{index}")
    sim.run_until_idle()
    chosen = log.chosen_values("r0")
    assert chosen == [f"cmd-{i}" for i in range(PROPOSALS)]
    return _measure(net)


def test_transport_batching_cuts_envelopes_and_headers():
    reductions = {}
    savings = {"gossip": {}, "paxos": {}}
    for workload, runner in (("gossip", run_gossip), ("paxos", run_paxos)):
        for fan_out in FAN_OUTS:
            unbatched = runner(fan_out, batching=False)
            batched = runner(fan_out, batching=True)
            reduction = unbatched["envelopes"] / batched["envelopes"]
            # Batching must not change what was said, only how it shipped.
            assert batched["logical_messages"] == unbatched["logical_messages"]
            RESULTS[workload].append({
                "fan_out": fan_out,
                "unbatched_envelopes": unbatched["envelopes"],
                "batched_envelopes": batched["envelopes"],
                "envelope_reduction": round(reduction, 2),
                "unbatched_bytes": unbatched["bytes"],
                "batched_bytes": batched["bytes"],
                "header_bytes_saved": batched["header_bytes_saved"],
                "logical_messages": batched["logical_messages"],
            })
            reductions[(workload, fan_out)] = reduction
            savings[workload][fan_out] = batched["header_bytes_saved"]

    # Acceptance floor: >= 2x fewer envelopes at fan-out 5 for the Paxos block.
    assert reductions[("paxos", 5)] >= 2.0, reductions

    # The put burst — 40 puts at each replica, stamped outside any event —
    # costs one window per (replica, peer) pair plus its ack, with the
    # transport's batching on or off.
    for row in RESULTS["gossip"]:
        pairs = row["fan_out"] * (row["fan_out"] + 1)
        assert row["unbatched_envelopes"] == row["batched_envelopes"] <= 2 * pairs, row

    RESULTS["envelope_reduction_at_fanout5"] = {
        "gossip": round(reductions[("gossip", 5)], 2),
        "paxos": round(reductions[("paxos", 5)], 2),
    }
    RESULTS["header_savings_growth_fanout2_to_5"] = {
        "paxos": round(savings["paxos"][5] / savings["paxos"][2], 2),
        "linear_reference": FAN_OUTS[1] / FAN_OUTS[0],
    }

    print_rows(
        "E14: transport batching (gossip burst + Paxos block)",
        ["workload", "fan-out", "envelopes before", "envelopes after",
         "reduction", "header B saved"],
        [[workload, row["fan_out"], row["unbatched_envelopes"],
          row["batched_envelopes"], f"{row['envelope_reduction']:.1f}x",
          row["header_bytes_saved"]]
         for workload in ("gossip", "paxos") for row in RESULTS[workload]],
    )
    emit_bench("transport", RESULTS)
