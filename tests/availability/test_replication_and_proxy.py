"""Tests for replicated execution and the client proxy."""

import pytest

from repro.apps.covid import build_covid_program
from repro.availability import ReplicaNode, ReplicaProxy
from repro.cluster import Network, NetworkConfig, Simulator, TransportConfig
from repro.cluster.transport import _PendingRequest


def build_replicated_deployment(replica_count=3, seed=7, gossip_interval=10.0,
                                sanitize=False):
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5),
                  transport=TransportConfig(sanitize=sanitize))
    program = build_covid_program(vaccine_count=10)
    replica_ids = [f"replica-{i}" for i in range(replica_count)]
    replicas = {
        rid: ReplicaNode(rid, sim, net, program, domain=f"az-{i}",
                         gossip_interval=gossip_interval, peers=replica_ids)
        for i, rid in enumerate(replica_ids)
    }
    proxy = ReplicaProxy("proxy", sim, net, retry_timeout=20.0)
    for handler in program.handlers:
        proxy.register_endpoint(handler, replica_ids)
    return sim, net, program, replicas, proxy


class TestReplicatedExecution:
    def test_request_routed_and_answered(self):
        sim, net, program, replicas, proxy = build_replicated_deployment()
        replies = []
        proxy.invoke("add_person", {"pid": 1, "country": "US"}, on_reply=replies.append)
        sim.run(until=200.0)
        assert replies == [{"status": "ok", "value": "OK", "replica": "replica-0"}]
        assert proxy.availability() == 1.0

    def test_replicas_converge_via_gossip(self):
        sim, net, program, replicas, proxy = build_replicated_deployment()
        proxy.invoke("add_person", {"pid": 1})
        proxy.invoke("add_person", {"pid": 2})
        proxy.invoke("add_contact", {"id1": 1, "id2": 2})
        sim.run(until=500.0)
        counts = {rid: r.interpreter.view().count("people") for rid, r in replicas.items()}
        assert set(counts.values()) == {2}
        for replica in replicas.values():
            row = replica.interpreter.view().row("people", 1)
            assert 2 in row["contacts"]

    def test_requests_survive_replica_failure(self):
        sim, net, program, replicas, proxy = build_replicated_deployment()
        replicas["replica-0"].crash()
        replies = []
        for pid in range(10):
            proxy.invoke("add_person", {"pid": pid}, on_reply=replies.append)
        sim.run(until=1000.0)
        assert [reply["status"] for reply in replies] == ["ok"] * 10
        assert "replica-0" not in {reply["replica"] for reply in replies}
        assert proxy.metrics.counter("proxy.retries") == 4     # the four sent to replica-0
        assert proxy.availability() == 1.0

    def test_a_rejected_op_answers_the_invariants_detail(self):
        sim, net, program, replicas, proxy = build_replicated_deployment(
            replica_count=1, gossip_interval=None)
        replies = []
        for pid in range(11):
            proxy.invoke("add_person", {"pid": pid})
        sim.run(until=100.0)
        for pid in range(11):                   # one more than the ten vaccines
            proxy.invoke("vaccinate", {"pid": pid}, on_reply=replies.append)
        sim.run(until=200.0)
        assert [reply["status"] for reply in replies] == ["ok"] * 10 + ["rejected"]
        assert "value" not in replies[-1]
        assert "vaccine_count_non_negative" in replies[-1]["detail"]
        assert replies[-1]["replica"] == "replica-0"

    def test_unregistered_endpoint_rejected(self):
        sim, net, program, replicas, proxy = build_replicated_deployment()
        with pytest.raises(KeyError):
            proxy.invoke("missing_handler", {})

    def test_proxy_records_latency_metrics(self):
        sim, net, program, replicas, proxy = build_replicated_deployment()
        proxy.invoke("add_person", {"pid": 1})
        sim.run(until=200.0)
        assert proxy.metrics.latency("proxy.add_person").count == 1


class TestProxyBookkeeping:
    def test_replied_requests_leave_nothing_behind(self):
        sim, net, program, replicas, proxy = build_replicated_deployment(gossip_interval=None)
        replies = []
        for pid in range(12):
            proxy.invoke("add_person", {"pid": pid}, on_reply=replies.append)
        sim.run(until=10.0)
        assert len(replies) == 12
        assert proxy.transport.pending_requests == 0
        # Every timeout was cancelled with its reply: nothing live is queued,
        # and running past the retry timeout fires nothing.
        assert sim.pending_events == sim.cancelled_pending
        sim.tracing = True
        sim.run(until=100.0)
        assert sim.trace == []
        assert proxy.metrics.counter("proxy.retries") == 0

    def test_replied_requests_are_freed_by_reference_count(self):
        """A request's timeout is ``pending.timer``; a callback or lazy label
        that held ``pending`` back kept every answered request alive, in a
        cycle only the garbage collector could break."""
        import gc

        sim, net, program, replicas, proxy = build_replicated_deployment(gossip_interval=None)
        gc.collect()
        gc.disable()
        try:
            replies = []
            for pid in range(12):
                proxy.invoke("add_person", {"pid": pid}, on_reply=replies.append)
            sim.run(until=100.0)                # answered, and past every retry timeout
            assert len(replies) == 12
            assert not any(isinstance(obj, _PendingRequest) for obj in gc.get_objects())
        finally:
            gc.enable()

    def test_failed_requests_leave_nothing_behind(self):
        sim, net, program, replicas, proxy = build_replicated_deployment(gossip_interval=None)
        for replica in replicas.values():
            replica.crash()
        replies = []
        proxy.invoke("add_person", {"pid": 1}, on_reply=replies.append)
        sim.run(until=500.0)
        assert replies == []
        assert proxy.metrics.counter("proxy.forwarded") == proxy.max_attempts
        # One send and three retries: the last timeout sends nothing.
        assert proxy.metrics.counter("proxy.retries") == (
            proxy.metrics.counter("proxy.forwarded") - 1)
        assert proxy.metrics.counter("proxy.failures") == 1
        assert net.metrics.keyed_counters("transport.rpc_timeouts_to") == {
            "replica-0": 2, "replica-1": 1, "replica-2": 1}
        assert proxy.transport.pending_requests == 0
        assert sim.pending_events == sim.cancelled_pending

    def test_requests_in_flight_when_the_proxy_crashes_are_failed(self):
        """``Node.crash`` drops the transport's requests and their timeouts;
        without a verdict they would be neither answered nor failed."""
        sim, net, program, replicas, proxy = build_replicated_deployment(gossip_interval=None)
        replies = []
        for pid in range(3):
            proxy.invoke("add_person", {"pid": pid}, on_reply=replies.append)
        sim.run(until=0.1)                      # on the wire, not yet answered
        proxy.crash()
        assert proxy.metrics.counter("proxy.failures") == 3
        proxy.recover()
        assert proxy.transport.pending_requests == 0
        sim.run(until=500.0)
        assert replies == []                    # the late replies find nothing in flight
        assert net.metrics.counter("transport.rpc_duplicate_replies") == 3
        assert proxy.metrics.counter("proxy.failures") == 3
        assert proxy.availability() == 0.0

    def test_late_duplicate_reply_is_ignored(self):
        """A replica slowed past ``retry_timeout`` is failed over; its late
        reply is a duplicate to the transport, so the client hears once."""
        sim, net, program, replicas, proxy = build_replicated_deployment(gossip_interval=None)
        net.degrade(delay_factor=30.0, node="replica-0")   # a round trip takes >= 30 ticks
        replies = []
        proxy.invoke("add_person", {"pid": 1}, on_reply=replies.append)
        sim.run(until=200.0)
        assert [reply["replica"] for reply in replies] == ["replica-1"]
        assert replicas["replica-0"].interpreter.view().count("people") == 1   # it served, late
        assert net.metrics.counter("transport.rpc_duplicate_replies") == 1
        assert net.metrics.keyed_counters("transport.rpc_timeouts_to") == {"replica-0": 1}
        assert proxy.metrics.counter("proxy.retries") == 1
        assert proxy.metrics.counter("proxy.replies") == 1


class TestSharedGossipPayloads:
    """A gossip payload's row dicts are its own, but the lattice values in
    them are the sender's live objects, and a receiver may adopt them.  Safe
    only while neither side mutates a stored value in place — checked here
    with the transport's payload sanitizer armed."""

    def people(self, replica):
        return replica.interpreter.state.table("people")

    def test_interleaved_writes_and_gossip_converge_without_mutation(self):
        sim, net, program, replicas, proxy = build_replicated_deployment(sanitize=True)
        pid = 0
        for round_number in range(8):
            # Three writes per gossip round, one per replica (round-robin).
            proxy.invoke("add_person", {"pid": pid, "country": "US"})
            proxy.invoke("add_contact", {"id1": pid, "id2": max(0, pid - 1)})
            proxy.invoke("add_contact", {"id1": 0, "id2": pid})
            pid += 1
            sim.run(until=10.0 * (round_number + 1) + 5.0)   # PayloadMutationError surfaces here
        sim.run(until=150.0)
        for replica in replicas.values():
            assert replica.transport.mailbox_stats["gossip"]["messages"] >= 5 * 2
        tables = [{key: (row["contacts"], row["covid"], row["vaccinated"])
                   for key, row in self.people(replica).rows.items()}
                  for replica in replicas.values()]
        assert tables[0] == tables[1] == tables[2]
        assert len(tables[0]) == 8
        assert set(tables[0][0][0]) == set(range(8))     # round 0 pairs person 0 with itself

    def test_adopted_values_survive_the_senders_later_merges(self):
        sim, net, program, replicas, proxy = build_replicated_deployment(sanitize=True)
        a, b = replicas["replica-0"], replicas["replica-1"]
        only_a = ReplicaProxy("proxy-a", sim, net)
        only_a.register_endpoint("add_contact", ["replica-0"])

        only_a.invoke("add_contact", {"id1": 1, "id2": 2})
        sim.run(until=15.0)                      # one gossip round: B learns row 1 from A
        adopted = self.people(b).get(1)["contacts"]
        assert self.people(b).get(1) is self.people(a).get(1)    # the row is shared too

        only_a.invoke("add_contact", {"id1": 1, "id2": 3})
        sim.run(until=19.0)                      # applied at A, not yet gossiped
        assert set(self.people(a).get(1)["contacts"]) == {2, 3}
        assert self.people(a).get(1)["contacts"] is not adopted
        assert set(adopted) == {2}                                # never mutated in place
        assert set(self.people(b).get(1)["contacts"]) == {2}

        sim.run(until=60.0)
        for replica in replicas.values():
            assert set(self.people(replica).get(1)["contacts"]) == {2, 3}
        assert set(adopted) == {2}
