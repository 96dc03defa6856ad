"""E6 — the availability facet (§6): surviving f failures per failure domain.

Regenerates the facet's contract: a deployment compiled for f=2 across AZs
keeps serving through a full-AZ outage, and an unreplicated deployment does
not.
"""

import pytest

from conftest import print_rows
from repro.apps.covid import build_covid_program
from repro.availability import ReplicaNode, ReplicaProxy
from repro.cluster import Network, NetworkConfig, Simulator


def build(replica_count: int, seed: int = 5):
    simulator = Simulator(seed=seed)
    network = Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
    program = build_covid_program(vaccine_count=100)
    replica_ids = [f"replica-{i}" for i in range(replica_count)]
    replicas = {
        rid: ReplicaNode(rid, simulator, network, program, domain=f"az-{i}",
                         gossip_interval=10.0, peers=replica_ids)
        for i, rid in enumerate(replica_ids)
    }
    proxy = ReplicaProxy("proxy", simulator, network, retry_timeout=20.0)
    for handler in program.handlers:
        proxy.register_endpoint(handler, replica_ids)
    return simulator, program, replicas, proxy


def drive_with_outage(replica_count: int, crash_count: int, requests: int = 30):
    simulator, program, replicas, proxy = build(replica_count)
    for pid in range(requests // 2):
        proxy.invoke("add_person", {"pid": pid})
    simulator.run(until=500.0)
    for victim in list(replicas)[:crash_count]:
        replicas[victim].crash()
    for pid in range(requests // 2, requests):
        proxy.invoke("add_person", {"pid": pid})
    simulator.run(until=3000.0)
    return proxy.availability(), proxy.metrics.latency("proxy.add_person").p99


@pytest.mark.parametrize("replicas,crashes", [(1, 1), (3, 1), (3, 2)])
def test_availability_under_az_failures(benchmark, replicas, crashes):
    availability, p99 = benchmark.pedantic(
        drive_with_outage, args=(replicas, crashes), rounds=1, iterations=1
    )
    print_rows(
        f"E6: {replicas} replica(s), {crashes} AZ failure(s) mid-run",
        ["replicas", "crashed", "observed availability", "p99 latency (sim ms)"],
        [[replicas, crashes, f"{availability:.2f}", f"{p99:.1f}"]],
    )
    if replicas > crashes:
        assert availability == 1.0
    else:
        assert availability < 1.0
