"""Simulator determinism under chaos: same seed + schedule => same trace.

The chaos harness's replay/shrink machinery is only sound if a scenario is
a pure function of ``(seed, schedule, config)``.  That must hold not just
within one process but across interpreter runs with different
``PYTHONHASHSEED`` values — CI pins two different seeds per job, and any
code that lets salted set/dict iteration order leak into the *event
schedule* (e.g. building gossip payloads from raw set iteration) forks the
trace between them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Runs a small-but-complete scenario (all four workloads, every nemesis
#: primitive) and prints one digest of the full event trace + all stores.
DIGEST_SCRIPT = """
import hashlib
from repro.chaos import run_scenario, standard_schedule, fast_config, state_digest

result = run_scenario(11, standard_schedule(), config=fast_config(), trace=True)
trace = "\\n".join(f"{t:.9f} {label}" for t, label in result.env.simulator.trace)
payload = trace + "\\n" + state_digest(result.env)
print(hashlib.sha256(payload.encode()).hexdigest())
"""


#: A short traced KVS run touching every lazily rendered label: deliveries,
#: the default ``timer@`` label, gossip cadences, and RPC timeouts (client
#: c1 is cut off, so its requests time out and retry).  Prints the sha256
#: of its ``(time, label)`` rows.
LABEL_SCRIPT = """
import hashlib
from repro.cluster import Network, NetworkConfig, Simulator
from repro.lattices import LWWRegister
from repro.storage.client import KVSClient
from repro.storage.kvs import LatticeKVS

sim = Simulator(seed=5)
sim.tracing = True
net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
kvs = LatticeKVS(sim, net, shard_count=2, replication_factor=3,
                 gossip_interval=20.0)
clients = [KVSClient(f"c{i}", sim, net, kvs) for i in range(2)]
net.partition({"c1"}, {r.node_id for shard in kvs.shards for r in shard})
clients[0].set_timer(3.3, lambda: None)
for i in range(45):
    client = clients[0 if i % 5 else 1]
    if i % 3 == 0:
        op = lambda c=client, i=i: c.put(f"k{i % 7}", LWWRegister(i, i))
    else:
        op = lambda c=client, i=i: c.get(f"k{i % 7}")
    sim.schedule_at(0.11 + 0.37 * i, op, label="op")
sim.run(until=90.0)
kinds = {label.split("@")[0].split(" ")[0] for _, label in sim.trace}
assert kinds == {"deliver", "kvs-gossip", "op", "rpc-timeout", "timer"}, kinds
rows = "\\n".join(f"{t:.9f} {label}" for t, label in sim.trace)
print(hashlib.sha256(rows.encode()).hexdigest())
"""

#: What LABEL_SCRIPT prints, identically under both hash seeds.  Pinned at
#: 11462c1c… from the last commit whose flush was a heap event (6c31a54, its
#: ``transport-flush@…`` rows filtered out) until PR 20 changed the traffic
#: itself: a put ships to each peer as one acked ``gossip`` window instead of
#: a ``replicate`` plus two rounds of gossip, so the run's 204 rows became
#: 208 (120 deliveries for 116; same ops, cadences and timeouts) while its
#: wire bytes fell from 11,376 to 8,784.
LABEL_DIGEST = "9be22ec44a36479602b34dc1c3168d113f50063d51a2e62c05390e96ac228954"


#: The geo chaos scenario (priced links, shared NICs, every nemesis
#: primitive) folded into one digest of everything the link model produces:
#: the event trace, the byte ledger, every observatory window, the
#: ``net.delivery`` samples, all counters, the transmission high-water mark
#: and the final stores.
GEO_SCRIPT = """
import hashlib
from dataclasses import astuple
from repro.chaos import geo_config, run_scenario, standard_schedule, state_digest

result = run_scenario(11, standard_schedule(), config=geo_config(), trace=True)
env = result.env
network = env.network
observatory = network.observatory
parts = [f"{t:.9f} {label}" for t, label in env.simulator.trace]
parts += [f"{link!r} {sorted(stat.items())!r}"
          for link, stat in sorted(network.link_byte_stats().items(), key=repr)]
for bucket in observatory.buckets():
    parts += [f"{bucket} {link!r} {astuple(stat)!r}"
              for link, stat in sorted(observatory.window(bucket).items(), key=repr)]
parts.append(repr(list(network.metrics.latency("net.delivery").samples)))
counters = network.metrics.counters()
# The pin predates the registry dropping ``transport.bytes_sent``, its copy of
# the network's own byte count: fold that count back in under the old name.
counters["transport.bytes_sent"] = float(network.bytes_sent)
parts.append(repr(sorted(counters.items())))
parts.append(repr(network.max_transmission_delay))
parts.append(state_digest(env))
print(hashlib.sha256("\\n".join(parts).encode()).hexdigest())
"""

#: What GEO_SCRIPT prints, identically under both hash seeds.  Pinned at
#: a9900bcc… from the last commit whose link state lived in five dicts
#: (7e4177a) until PR 20 replaced the shard's replication protocol (one
#: acked window per put and peer; see ``LABEL_DIGEST``), which moves every
#: ledger this digest folds in.  Re-pinned from b509ca16… when
#: ``DomainOutage`` began crashing its zone at fire time instead of
#: scheduling one ``crash <id>`` event per member at the same instant: the
#: run lost exactly those 2 trace rows, and with them dropped, the trace,
#: ledgers, windows, samples, counters and stores of seeds 0-9 and 11
#: under both the fast and the geo profile hash identical to before.  It
#: stays the priced path's commit-to-commit pin: a change that claims to
#: leave traffic alone must leave it alone.
GEO_DIGEST = "f3fe342772711b035a99a09848b357eb50dee93cd20c37d76c514c7222cafe53"


def scenario_digest():
    from repro.chaos import fast_config, run_scenario, standard_schedule, state_digest

    result = run_scenario(11, standard_schedule(), config=fast_config(), trace=True)
    trace = "\n".join(f"{t:.9f} {label}" for t, label in result.env.simulator.trace)
    return hashlib.sha256((trace + "\n" + state_digest(result.env)).encode()).hexdigest()


def digest_under_hashseed(hashseed: str, script: str = DIGEST_SCRIPT) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC + os.pathsep * bool(env.get("PYTHONPATH")) \
        + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True, env=env)
    return result.stdout.strip()


class TestChaosDeterminism:
    def test_same_seed_same_schedule_identical_trace(self):
        assert scenario_digest() == scenario_digest()

    def test_trace_includes_nemesis_and_final_stores(self):
        from repro.chaos import fast_config, run_scenario, standard_schedule

        result = run_scenario(11, standard_schedule(), config=fast_config(),
                              trace=True)
        labels = [label for _, label in result.env.simulator.trace]
        assert any("nemesis" in label for label in labels)
        assert any("workload" in label for label in labels)
        assert any("deliver" in label for label in labels)

    def test_different_seeds_diverge(self):
        from repro.chaos import fast_config, run_scenario, standard_schedule

        traces = []
        for seed in (11, 12):
            result = run_scenario(seed, standard_schedule(),
                                  config=fast_config(), trace=True)
            traces.append(result.env.simulator.trace)
        assert traces[0] != traces[1]

    def test_byte_identical_across_pythonhashseed_values(self):
        """The two CI jobs pin different hash seeds; the trace digest must
        agree between them (exercised here with two fresh interpreters)."""
        assert digest_under_hashseed("1") == digest_under_hashseed("31337")

    def test_traced_labels_match_the_flush_event_era_minus_flush_rows(self):
        """Every lazily rendered label (``deliver …``, ``rpc-timeout@…``,
        ``timer@…``) and every event time of a short KVS run is the pinned
        one — the name recalls the era the pin was first taken in; see
        ``LABEL_DIGEST`` for what re-pinned it since."""
        assert digest_under_hashseed("1", LABEL_SCRIPT) == LABEL_DIGEST
        assert digest_under_hashseed("31337", LABEL_SCRIPT) == LABEL_DIGEST

    def test_priced_path_matches_the_five_dict_era(self):
        """The priced path's commit-to-commit pin (``LABEL_DIGEST`` covers
        only the unpriced one): trace, ledgers, windows, samples and
        counters of a geo chaos run are the pinned ones, bit for bit — see
        ``GEO_DIGEST`` for what re-pinned it since the five-dict era."""
        assert digest_under_hashseed("1", GEO_SCRIPT) == GEO_DIGEST
        assert digest_under_hashseed("31337", GEO_SCRIPT) == GEO_DIGEST
