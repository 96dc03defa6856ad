"""Tests for the simulated network, nodes and failure domains."""

import pytest

from repro.cluster import (
    FailureDomain,
    Network,
    NetworkConfig,
    Node,
    Placement,
    Simulator,
    Topology,
    TransportConfig,
)
from repro.apps.covid import build_covid_program
from repro.compiler import Hydrolysis
from repro.lattices import SetUnion
from repro.storage import LatticeKVS
from repro.storage.antientropy import DigestTree


def build_pair(config=None):
    """Two nodes on a network whose transport ships each queued parcel at
    once in an envelope of its own, so every ``queue`` is one message."""
    sim = Simulator(seed=1)
    net = Network(sim, config or NetworkConfig(base_delay=1.0, jitter=0.0),
                  transport=TransportConfig(batching=False))
    received = []
    a = Node("a", sim, net)
    b = Node("b", sim, net)
    b.on("inbox", lambda msg: received.append(msg.payload))
    return sim, net, a, b, received


class TestNetworkDelivery:
    def test_message_delivered_after_delay(self):
        sim, net, a, b, received = build_pair()
        a.queue("b", "inbox", "hello")
        assert received == []
        sim.run_until_idle()
        assert received == ["hello"]
        assert sim.now >= 1.0

    def test_drop_rate_one_drops_everything(self):
        sim, net, a, b, received = build_pair(NetworkConfig(drop_rate=1.0))
        for i in range(10):
            a.queue("b", "inbox", i)
        sim.run_until_idle()
        assert received == []
        assert net.messages_dropped == 10

    def test_duplicate_rate_one_duplicates_everything(self):
        sim, net, a, b, received = build_pair(
            NetworkConfig(base_delay=1.0, jitter=0.0, duplicate_rate=1.0)
        )
        a.queue("b", "inbox", "x")
        sim.run_until_idle()
        assert received == ["x", "x"]

    def test_partition_blocks_and_heal_restores(self):
        sim, net, a, b, received = build_pair()
        part = net.partition({"a"}, {"b"})
        a.queue("b", "inbox", "lost")
        sim.run_until_idle()
        assert received == []
        net.heal(part)
        a.queue("b", "inbox", "found")
        sim.run_until_idle()
        assert received == ["found"]

    def test_unknown_destination_counts_as_dropped(self):
        sim, net, a, b, received = build_pair()
        a.queue("ghost", "inbox", "x")
        sim.run_until_idle()
        assert net.messages_dropped == 1

    def test_broadcast_reaches_all(self):
        sim = Simulator()
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
        got = {"b": [], "c": []}
        a = Node("a", sim, net)
        for name in ("b", "c"):
            node = Node(name, sim, net)
            node.on("inbox", lambda msg, name=name: got[name].append(msg.payload))
        a.queue("b", "inbox", "hi")
        a.queue("c", "inbox", "hi")
        sim.run_until_idle()
        assert got == {"b": ["hi"], "c": ["hi"]}

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        net = Network(sim)
        Node("a", sim, net)
        with pytest.raises(ValueError):
            Node("a", sim, net)


class TestPartitionSemantics:
    """Pins the Partition/heal semantics the chaos nemesis relies on."""

    def test_heal_is_idempotent(self):
        sim, net, a, b, received = build_pair()
        part = net.partition({"a"}, {"b"})
        net.heal(part)
        net.heal(part)  # second heal of the same handle is a no-op
        a.queue("b", "inbox", "ok")
        sim.run_until_idle()
        assert received == ["ok"]

    def test_heal_removes_by_handle_not_by_equality(self):
        """Two equal-valued partitions are distinct cuts: healing one
        handle must not tear down the other (list.remove would)."""
        sim, net, a, b, received = build_pair()
        first = net.partition({"a"}, {"b"})
        second = net.partition({"a"}, {"b"})
        net.heal(first)
        net.heal(first)  # repeated heal must not consume `second`
        assert not net.is_reachable("a", "b")
        net.heal(second)
        assert net.is_reachable("a", "b")

    def test_heal_of_uninstalled_partition_is_a_noop(self):
        from repro.cluster import Partition

        sim, net, a, b, received = build_pair()
        installed = net.partition({"a"}, {"b"})
        net.heal(Partition(frozenset({"a"}), frozenset({"b"})))
        assert not net.is_reachable("a", "b")
        net.heal(installed)

    def test_self_sends_never_separated(self):
        sim, net, a, b, received = build_pair()
        part = net.partition({"a"}, {"a", "b"})
        assert not part.separates("a", "a")
        assert net.is_reachable("a", "a")

    def test_node_in_both_groups_is_a_bridge(self):
        """A node listed on both sides straddles the cut: it keeps
        connectivity to everyone while the pure sides stay separated."""
        sim = Simulator()
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
        part = net.partition({"a", "bridge"}, {"b", "bridge"})
        assert part.separates("a", "b") and part.separates("b", "a")
        assert not part.separates("a", "bridge")
        assert not part.separates("bridge", "b")
        assert not part.separates("b", "bridge")

    def test_bridge_relays_around_the_cut(self):
        sim = Simulator()
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
        got = []
        a = Node("a", sim, net)
        bridge = Node("bridge", sim, net)
        b = Node("b", sim, net)
        bridge.on("relay", lambda msg: bridge.queue("b", "inbox", msg.payload))
        b.on("inbox", got.append)
        net.partition({"a", "bridge"}, {"b", "bridge"})
        a.queue("b", "inbox", "direct")    # dropped by the cut
        a.queue("bridge", "relay", "via")  # relayed around it
        sim.run_until_idle()
        assert [msg.payload for msg in got] == ["via"]


class TestNodeLifecycle:
    def test_crashed_node_ignores_messages(self):
        sim, net, a, b, received = build_pair()
        b.crash()
        a.queue("b", "inbox", "while-down")
        sim.run_until_idle()
        assert received == []

    def test_crashed_node_does_not_send(self):
        sim, net, a, b, received = build_pair()
        a.crash()
        a.queue("b", "inbox", "x")
        sim.run_until_idle()
        assert received == []
        assert net.messages_sent == 0

    def test_recovered_node_processes_new_messages(self):
        sim, net, a, b, received = build_pair()
        b.crash()
        a.queue("b", "inbox", "lost")
        sim.run_until_idle()
        b.recover()
        a.queue("b", "inbox", "after")
        sim.run_until_idle()
        assert received == ["after"]

    def test_timers_cancelled_on_crash(self):
        sim, net, a, b, received = build_pair()
        fired = []
        b.set_timer(5.0, lambda: fired.append("timer"))
        b.crash()
        sim.run_until_idle()
        assert fired == []


def armed_timers(node):
    now = node.simulator.now
    return [timer for timer in node._timers
            if not timer.cancelled and timer.time > now]


class TestRecoverOnALiveNode:
    """``recover`` undoes a crash; on a node that never crashed it changes
    nothing, whatever ``lose_state`` says: the node lost nothing."""

    def test_a_live_covid_replica_keeps_its_rows_and_timers(self):
        sim = Simulator(seed=3)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
        topology = Topology()
        sites = [f"node-{index}" for index in range(3)]
        for index, site in enumerate(sites):
            topology.place(site, az=f"az-{index}", vm=f"vm-{index}")
        program = build_covid_program()
        plan = Hydrolysis().compile(program, topology, sites)
        deployment = Hydrolysis().deploy(program, plan, sim, net)
        deployment.invoke("add_person", pid=1, country="fr")
        deployment.settle(30.0)
        for replica in deployment.replicas.values():
            rows = dict(replica.interpreter.state.table("people").rows)
            timers = armed_timers(replica)
            assert len(rows) == 1 and timers
            replica.recover(lose_state=True)
            assert replica.interpreter.state.table("people").rows == rows
            assert armed_timers(replica) == timers

    def test_a_live_kvs_replica_keeps_its_store_and_timers(self):
        sim = Simulator(seed=3)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
        kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=3)
        for index in range(5):
            kvs.put(f"k{index}", SetUnion({index}))
        kvs.settle(100.0)
        for replica in kvs.shards[0]:
            store = dict(replica.store)
            timers = armed_timers(replica)
            assert len(store) == 5 and timers
            replica.recover(lose_state=True)
            assert replica.store == store
            assert armed_timers(replica) == timers
            assert replica.tree == DigestTree.from_store(store)


class TestTopologyAndPlacement:
    def build_topology(self):
        topo = Topology()
        topo.place("n1", az="az-a", vm="vm-1")
        topo.place("n2", az="az-a", vm="vm-2")
        topo.place("n3", az="az-b", vm="vm-3")
        topo.place("n4", az="az-c", vm="vm-4")
        return topo

    def test_distinct_domains(self):
        topo = self.build_topology()
        azs = topo.distinct_domains(["n1", "n2", "n3"], FailureDomain.AVAILABILITY_ZONE)
        assert azs == {"az-a", "az-b"}

    def test_placement_tolerance(self):
        topo = self.build_topology()
        narrow = Placement("ep", ["n1", "n2"], topo)
        wide = Placement("ep", ["n1", "n3", "n4"], topo)
        assert narrow.tolerates(1, FailureDomain.VM)
        assert not narrow.tolerates(1, FailureDomain.AVAILABILITY_ZONE)
        assert wide.tolerates(2, FailureDomain.AVAILABILITY_ZONE)

    def test_surviving_replicas(self):
        topo = self.build_topology()
        placement = Placement("ep", ["n1", "n3", "n4"], topo)
        survivors = placement.surviving_replicas(["az-a"], FailureDomain.AVAILABILITY_ZONE)
        assert survivors == ["n3", "n4"]

    def test_unplaced_node_gets_singleton_domain(self):
        topo = self.build_topology()
        domain = topo.domain_of("unknown", FailureDomain.AVAILABILITY_ZONE)
        assert domain == (FailureDomain.AVAILABILITY_ZONE, "unknown")

