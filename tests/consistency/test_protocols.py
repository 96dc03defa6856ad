"""Tests for the coordination mechanisms: consensus log, causal broadcast."""

import pytest

from repro.cluster import Network, NetworkConfig, Simulator
from repro.consistency import CausalBroadcast, ConsensusLog
from repro.consistency.paxos import LEARN_REQUESTS


def make_cluster(seed=3, drop_rate=0.0):
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5, drop_rate=drop_rate))
    return sim, net


class TestConsensusLog:
    def build(self, n=3, seed=5):
        sim, net = make_cluster(seed=seed)
        applied = {f"r{i}": [] for i in range(n)}
        log = ConsensusLog(
            sim, net, [f"r{i}" for i in range(n)],
            apply_entry=lambda rid, slot, value: applied[rid].append((slot, value)),
        )
        return sim, log, applied

    def test_entries_chosen_and_applied_in_order_on_all_replicas(self):
        sim, log, applied = self.build()
        for value in ["a", "b", "c"]:
            log.append(value)
        sim.run_until_idle()
        for replica_id, entries in applied.items():
            assert [value for _, value in entries] == ["a", "b", "c"]
            assert [slot for slot, _ in entries] == [0, 1, 2]

    def test_all_replicas_agree_on_chosen_values(self):
        sim, log, applied = self.build(n=5)
        for value in range(10):
            log.append(value)
        sim.run_until_idle()
        references = [log.chosen_values(f"r{i}") for i in range(5)]
        assert all(ref == references[0] for ref in references)
        assert references[0] == list(range(10))

    def test_append_without_leader_returns_none(self):
        sim, log, applied = self.build()
        log.replicas["r0"].crash()
        assert log.append("x") is None

    def test_failover_preserves_committed_entries(self):
        sim, log, applied = self.build(n=3, seed=11)
        log.append("committed-1")
        log.append("committed-2")
        sim.run_until_idle()
        log.replicas["r0"].crash()
        log.elect("r1")
        sim.run_until_idle()
        assert log.leader is not None and log.leader.node_id == "r1"
        log.append("after-failover")
        sim.run_until_idle()
        surviving = log.chosen_values("r1")
        assert surviving[:2] == ["committed-1", "committed-2"]
        assert "after-failover" in surviving
        assert log.chosen_values("r2") == surviving

    def test_new_leader_re_proposes_a_slot_only_it_accepted(self):
        """Slot 0 reached r1 alone and was never chosen: r1's acks to the
        leader are cut and r2 is unreachable.  After the leader crashes, r1's
        campaign must re-propose slot 0 before the next append takes slot 1,
        or no replica can apply past the hole."""
        sim, log, applied = self.build()
        net = log.replicas["r0"].network
        net.partition({"r1"}, {"r0"}, oneway=True)
        net.partition({"r0"}, {"r2"})
        log.append("a")
        sim.run_until_idle()
        assert 0 in log.replicas["r1"].accepted and log.replicas["r0"].chosen == {}
        log.replicas["r0"].crash()
        net.heal_all()
        log.elect("r1")
        sim.run_until_idle()
        log.append("b")
        sim.run_until_idle()
        assert applied["r1"] == applied["r2"] == [(0, "a"), (1, "b")]

    def test_callback_fires_when_chosen(self):
        sim, log, applied = self.build()
        chosen = []
        log.append("x", on_chosen=lambda slot, value: chosen.append((slot, value)))
        sim.run_until_idle()
        assert chosen == [(0, "x")]

    def test_leader_drops_the_ack_set_of_a_chosen_slot(self):
        """Ack sets are leader bookkeeping for undecided slots: once a slot
        is chosen nothing reads its set, so it must not outlive the choice."""
        sim, log, applied = self.build()
        for value in range(200):
            log.append(value)
        sim.run(until=1000.0)
        leader = log.leader
        assert len(leader.chosen) == 200
        assert leader._ack_counts == {}
        assert all(replica._ack_counts == {} for replica in log.replicas.values())


    def missed_two(self):
        """r2 slept through slots 1 and 2 of four and cannot apply the last."""
        sim, log, applied = self.build()
        log.append("a")
        sim.run_until_idle()
        sleeper = log.replicas["r2"]
        sleeper.crash()
        log.append("b")
        log.append("c")
        sim.run_until_idle()
        sleeper.recover()
        log.append("d")
        sim.run_until_idle()
        assert applied["r2"] == [(0, "a")] and sorted(sleeper.chosen) == [0, 3]
        return sim, log, applied, sleeper

    def test_learner_fetches_the_slots_it_missed_from_a_peer(self):
        sim, log, applied, sleeper = self.missed_two()
        replies = []
        sleeper.on("learned", lambda message: (replies.append(message.payload),
                                               sleeper._on_learned(message)))
        sleeper.learn("r1")
        sleeper.learn("r0")                 # one request in flight: not sent
        sim.run_until_idle()
        assert replies == [[(1, "b"), (2, "c"), (3, "d")]]      # from the hole on, in order
        assert applied["r2"] == applied["r0"] == [(0, "a"), (1, "b"), (2, "c"), (3, "d")]
        assert sleeper.network.metrics.counter(LEARN_REQUESTS) == 1
        assert sleeper.transport.mailbox_stats["learn"]["messages"] == 1
        assert log.replicas["r1"].transport.mailbox_stats["learned"]["entries"] == 3

    def test_learner_asks_again_after_a_timeout_and_after_its_own_crash(self):
        sim, log, applied, sleeper = self.missed_two()
        log.replicas["r1"].crash()
        sleeper.learn("r1")                 # nobody home: both attempts time out
        sim.run_until_idle()
        assert applied["r2"] == [(0, "a")]
        sleeper.learn("r0")
        sleeper.crash()                     # the request dies with its sender
        sim.run_until_idle()
        sleeper.recover()
        sleeper.learn("r0")
        sim.run_until_idle()
        assert [value for _, value in applied["r2"]] == ["a", "b", "c", "d"]
        assert sleeper.network.metrics.counter(LEARN_REQUESTS) == 3


class TestCausalBroadcast:
    def build(self, n=3, seed=9):
        sim, net = make_cluster(seed=seed)
        peers = [f"c{i}" for i in range(n)]
        nodes = {pid: CausalBroadcast(pid, sim, net, peers=peers) for pid in peers}
        return sim, nodes

    def test_all_nodes_deliver_all_messages(self):
        sim, nodes = self.build()
        nodes["c0"].broadcast("hello")
        nodes["c1"].broadcast("world")
        sim.run_until_idle()
        for node in nodes.values():
            assert sorted(node.delivered_payloads()) == ["hello", "world"]

    def test_fifo_order_per_origin(self):
        sim, nodes = self.build(seed=21)
        for i in range(5):
            nodes["c0"].broadcast(f"m{i}")
        sim.run_until_idle()
        for node in nodes.values():
            from_c0 = [m.payload for m in node.delivered if m.origin == "c0"]
            assert from_c0 == [f"m{i}" for i in range(5)]

    def test_causal_dependencies_respected(self):
        """A reply broadcast after seeing a message is never delivered before it."""
        sim, nodes = self.build(seed=33)
        original = nodes["c0"].broadcast("question")
        sim.run_until_idle()
        assert "question" in nodes["c1"].delivered_payloads()
        nodes["c1"].broadcast("answer")
        sim.run_until_idle()
        for node in nodes.values():
            payloads = node.delivered_payloads()
            assert payloads.index("question") < payloads.index("answer")

    def test_buffering_until_dependency_arrives(self):
        sim, nodes = self.build()
        # Manually craft an out-of-order arrival: deliver c0's second message first.
        nodes["c0"].broadcast("first")
        nodes["c0"].broadcast("second")
        sim.run_until_idle()
        for node in nodes.values():
            payloads = node.delivered_payloads()
            assert payloads.index("first") < payloads.index("second")
            assert node.pending == 0
