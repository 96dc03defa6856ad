"""The geo chaos profile: 3 regions × 2 AZs, locality-priced links.

Pins the geo tier end to end: the delay/bandwidth matrix, the two
placement policies (locality-aware vs the naive strawman), the wiring
through ``ChaosConfig`` into a built environment (replica domains, NIC
pricing, client fallback), DomainOutage interop with the placement, the
byte-conservation invariant under geo chaos — including a mid-flight
``restore_all`` — and a full scenario smoke run.
"""

import dataclasses

import pytest

from repro.chaos import (
    ChaosConfig,
    Congestion,
    DomainOutage,
    DropSpike,
    LatencySpike,
    Nemesis,
    PartitionStorm,
    build_env,
    check_link_byte_conservation,
    geo_config,
    run_scenario,
)
from repro.cluster import TRANSPORT_MAILBOX, Parcel
from repro.placement import (
    GEO_AZS,
    geo_delay_matrix,
    locality_aware_domain,
    naive_domain,
    region_of,
)
from repro.placement.geo import (
    CROSS_REGION_BANDWIDTH,
    CROSS_REGION_DELAY,
    GEO_NIC_BANDWIDTH,
    INTRA_AZ_DELAY,
    INTRA_REGION_BANDWIDTH,
    INTRA_REGION_DELAY,
)


class TestGeoTopology:
    def test_matrix_covers_every_az_pair(self):
        matrix = geo_delay_matrix()
        assert len(matrix) == len(GEO_AZS) ** 2

    def test_matrix_prices_by_locality(self):
        matrix = geo_delay_matrix()
        assert matrix.link("az-0", "az-0").delay == INTRA_AZ_DELAY
        assert matrix.link("az-0", "az-1").delay == INTRA_REGION_DELAY
        assert matrix.link("az-1", "az-0").bandwidth == INTRA_REGION_BANDWIDTH
        assert matrix.link("az-0", "az-2").delay == CROSS_REGION_DELAY
        assert matrix.link("az-5", "az-0").bandwidth == CROSS_REGION_BANDWIDTH
        assert matrix.max_delay() == CROSS_REGION_DELAY

    def test_region_of_follows_the_az_convention(self):
        assert [region_of(az) for az in GEO_AZS] == [0, 0, 1, 1, 2, 2]

    def test_locality_aware_placement_stays_in_one_region(self):
        for shard in range(6):
            azs = {locality_aware_domain(shard, replica)
                   for replica in range(4)}
            assert len({region_of(az) for az in azs}) == 1
            assert len(azs) == 2  # spread over both AZs: survives an outage

    def test_naive_placement_crosses_regions(self):
        for shard in range(4):
            regions = {region_of(naive_domain(shard, replica))
                       for replica in range(2)}
            assert len(regions) == 2, shard


class TestGeoEnvironment:
    def test_replicas_land_in_locality_aware_domains(self):
        env = build_env(1, geo_config())
        domains = env.network.domains()
        for shard_index, replicas in enumerate(env.kvs.shards):
            for replica_index, node in enumerate(replicas):
                assert domains[node.node_id] == locality_aware_domain(
                    shard_index, replica_index), node.node_id

    def test_network_config_prices_matrix_and_nics(self):
        env = build_env(1, geo_config())
        config = env.network.config
        assert config.delay_matrix is not None
        assert config.nic_bandwidth == GEO_NIC_BANDWIDTH
        replicas = env.kvs.shards[0]
        link = (replicas[0].node_id, replicas[1].node_id)
        # Shard 0 lives in region 0 (az-0, az-1): intra-region pricing.
        assert env.network.effective_bandwidth(*link) == pytest.approx(
            INTRA_REGION_BANDWIDTH)

    def test_nodes_outside_the_matrix_fall_back_to_base_pricing(self):
        """Workload clients carry no geo AZ, so their links fall back to
        the config's base bandwidth instead of a matrix entry."""
        from repro.cluster import Node

        env = build_env(1, geo_config())
        Node("geo-probe-client", env.simulator, env.network)
        replica = env.kvs.shards[0][0].node_id
        assert env.network.config.bandwidth is not None
        assert env.network.effective_bandwidth(
            "geo-probe-client", replica) == pytest.approx(
                env.network.config.bandwidth)

    def test_domain_outage_crashes_exactly_one_az_of_each_region_shard(self):
        env = build_env(1, geo_config())
        Nemesis(env, [DomainOutage(at=5.0, domain="az-1",
                                   downtime=30.0)]).start()
        env.simulator.run(until=6.0)
        downed = {e["subject"][1] for e in env.ground_truth
                  if e["kind"] == "DomainOutage"}
        domains = env.network.domains()
        assert downed  # the AZ was populated under locality placement
        assert all(domains[node] == "az-1" for node in downed)
        # Locality placement spread each shard over both AZs of its region,
        # so every shard with a replica in az-1 keeps one in az-0.
        for replicas in env.kvs.shards:
            ids = {r.node_id for r in replicas}
            assert ids - downed, "an outage must never take a whole shard"

    def test_slow_node_congestion_matrix_compose_once_on_nic_path(self):
        """The chaos-env flavour of the exactly-once composition pin:
        squeeze and slowdown factor each pipeline stage once."""
        env = build_env(1, geo_config())
        replicas = env.kvs.shards[0]
        sender, receiver = replicas[0], replicas[1]
        env.network.degrade(squeeze=2.0)
        env.network.degrade(delay_factor=3.0, node=receiver.node_id)
        probe = env.network.send(  # repro-lint: disable=RL002 -- raw probe: this test measures the link model itself
            sender.node_id, receiver.node_id, TRANSPORT_MAILBOX, (),
            size_bytes=8192)
        queue_wait, serialization, nic_wait = probe.transmission
        # uplink:   8192 / (8192/2)     = 2
        # link:     8192 / (8192/2) * 3 = 6   (intra-region pipe, slow dst)
        # downlink: 8192 / (8192/2) * 3 = 6
        assert serialization == pytest.approx(2.0 + 6.0 + 6.0)
        assert nic_wait == 0.0 and queue_wait == 0.0

    def test_latency_spike_stretches_matrix_delays(self):
        env = build_env(1, geo_config())
        Nemesis(env, [LatencySpike(at=5.0, duration=10.0,
                                   factor=4.0)]).start()
        env.simulator.run(until=6.0)
        assert env.network.delay_factor == 4.0
        replicas = env.kvs.shards[0]
        arrivals = []
        replicas[1].on("probe", lambda msg: arrivals.append(
            env.simulator.now))
        start = env.simulator.now
        env.network.send(  # repro-lint: disable=RL002 -- raw probe: this test measures the link model itself
            replicas[0].node_id, replicas[1].node_id, TRANSPORT_MAILBOX,
            (Parcel("probe", "x"),),
            size_bytes=0)
        env.simulator.run(until=start + 20.0)
        # Intra-region delay 1.5 stretched 4x, plus jitter in [0, jitter].
        assert arrivals
        assert arrivals[0] - start >= 4.0 * INTRA_REGION_DELAY
        env.simulator.run(until=40.0)
        assert env.network.delay_factor == 1.0


class TestGeoByteConservation:
    def test_conservation_holds_under_partitions_drops_and_squeeze_clears(self):
        """The per-link ledger balances under the geo profile's full fault
        mix — including an operator-style ``restore_all`` landing *mid*
        congestion and drop-spike windows, which retires the squeeze while
        messages priced under it are still in flight."""
        env = build_env(3, geo_config())
        schedule = [
            PartitionStorm(at=10.0, duration=25.0, waves=2, gap=10.0),
            DropSpike(at=15.0, duration=30.0, drop_rate=0.3),
            Congestion(at=20.0, duration=40.0, factor=8.0),
        ]
        Nemesis(env, schedule).start()
        env.simulator.schedule(
            30.0, env.network.restore_all,
            label="operator clears congestion mid-window")
        # Cross-shard probe traffic through every fault window: sends land
        # before, during and after the partitions, the drop spike, the
        # congestion window and the mid-window restore.
        replicas = [shard[0] for shard in env.kvs.shards]
        for step in range(30):
            sender = replicas[step % len(replicas)]
            receiver = replicas[(step + 1) % len(replicas)]
            env.simulator.schedule(
                2.0 * step,
                lambda s=sender, r=receiver, i=step: s.queue(
                    r.node_id, "probe", i, entries=4),
                label=f"geo-probe-{step}")
        env.simulator.run(until=80.0)  # all fault windows resolved
        # Fresh same-instant probes on the raw network (transport batching
        # would defer a node-level send): the balance must already hold
        # while their bytes are genuinely in flight (not only once idle).
        shard0 = env.kvs.shards[0]
        for i in range(5):
            env.network.send(  # repro-lint: disable=RL002 -- raw probe: this test measures the ledger itself
                shard0[0].node_id, shard0[1].node_id, TRANSPORT_MAILBOX, (),
                size_bytes=408)
        assert check_link_byte_conservation(env).ok
        stats = env.network.link_byte_stats()
        assert any(stat["in_flight_bytes"] > 0 for stat in stats.values())
        env.simulator.run(until=300.0)
        assert check_link_byte_conservation(env).ok
        stats = env.network.link_byte_stats()
        assert any(stat["delivered_bytes"] > 0 for stat in stats.values())
        assert any(stat["dropped_bytes"] > 0 for stat in stats.values())

    def test_pricing_the_links_mid_run_keeps_the_ledger_balanced(self):
        """The e2e KVS workloads preload on the flat network and price the
        links afterwards, with gossip on the wire: a message sent unpriced
        and delivered priced must not be credited to a ledger it never
        charged (regression: ``in_flight_bytes`` went negative)."""
        env = build_env(2, dataclasses.replace(ChaosConfig(),
                                               link_bandwidth=None))
        replicas = [shard[0] for shard in env.kvs.shards]
        for step in range(12):
            sender, receiver = replicas[step % 2], replicas[(step + 1) % 2]
            env.simulator.schedule(
                0.5 * step,
                lambda s=sender, r=receiver, i=step: s.queue(
                    r.node_id, "probe", i, entries=4),
                label=f"switch-probe-{step}")
        env.simulator.run(until=3.2)
        assert env.network.link_byte_stats() == {}  # still the flat network
        assert env.network.messages_sent > env.network.messages_delivered
        config = env.network.config
        config.delay_matrix = geo_delay_matrix()
        config.nic_bandwidth = GEO_NIC_BANDWIDTH
        env.simulator.run(until=60.0)
        stats = env.network.link_byte_stats()
        assert any(stat["delivered_bytes"] > 0 for stat in stats.values())
        assert check_link_byte_conservation(env).ok

    def test_checker_flags_a_cooked_ledger(self):
        env = build_env(1, geo_config())
        replicas = env.kvs.shards[0]
        for i in range(5):
            replicas[0].queue(replicas[1].node_id, "probe", i, entries=2)
        env.simulator.run(until=30.0)
        links = env.network._links
        assert links
        links[sorted(links, key=repr)[0]].delivered_bytes += 7  # corrupt the ledger
        result = check_link_byte_conservation(env)
        assert not result.ok
        assert "enqueued" in result.failures[0]


class TestGeoScenarioSmoke:
    def test_short_geo_scenario_passes_every_checker(self):
        config = dataclasses.replace(geo_config(), sanitize=True)
        schedule = [
            PartitionStorm(at=20.0, duration=30.0),
            Congestion(at=40.0, duration=30.0, factor=8.0),
            DomainOutage(at=60.0, domain="az-1", downtime=40.0),
        ]
        result = run_scenario(5, schedule, config=config)
        assert result.passed, result.failures
        assert any(check.name == "link-byte-conservation"
                   for check in result.checks)
