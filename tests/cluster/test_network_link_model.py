"""The per-link transmission model: bytes take time.

Pins the tentpole's contract from both sides:

* **model on** — serialization time scales with declared wire size, a link
  is a FIFO queue (delivery time grows with backlog, order is preserved
  under congestion), the delay matrix refines delay/bandwidth per failure-
  domain pair, congestion squeezes compose, and every byte enqueued on a
  link is eventually accounted delivered or dropped (conservation);
* **model off** (the default config) — the network is the pre-model,
  size-blind network: identical RNG consumption, identical delivery times,
  and event traces byte-identical across ``PYTHONHASHSEED`` values.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import (
    DelayMatrix,
    Network,
    NetworkConfig,
    Node,
    Simulator,
    wire_size,
)
from repro.cluster.metrics import LinkObservatory
from probes import ship

SRC = str(Path(__file__).resolve().parents[2] / "src")


def build(config, nodes=("a", "b", "c")):
    sim = Simulator(seed=1)
    net = Network(sim, config)
    arrivals = []
    built = {}
    for name in nodes:
        node = Node(name, sim, net)
        node.on("inbox", lambda msg, name=name: arrivals.append(
            (name, msg.payload, sim.now)))
        built[name] = node
    return sim, net, built, arrivals


class TestSerializationTime:
    def test_bigger_envelope_on_a_link_lands_strictly_later(self):
        """Two envelopes sent the same instant: the 10-entry one pays 10x
        the serialization of the 1-entry one (disjoint links isolate the
        size effect from queueing)."""
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=100.0))
        ship(nodes["a"], "b", "small", entries=1)
        ship(nodes["a"], "c", "large", entries=10)
        sim.run_until_idle()
        times = {payload: at for _, payload, at in arrivals}
        assert times["small"] == pytest.approx(1.0 + wire_size(1) / 100.0)
        assert times["large"] == pytest.approx(1.0 + wire_size(10) / 100.0)
        assert times["small"] < times["large"]

    def test_back_to_back_envelopes_queue_fifo(self):
        """Same-instant sends on one link serialize one after another:
        delivery time grows linearly with the backlog ahead."""
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=100.0))
        for i in range(4):
            ship(nodes["a"], "b", i, entries=1)
        sim.run_until_idle()
        serialization = wire_size(1) / 100.0
        assert [payload for _, payload, _ in arrivals] == [0, 1, 2, 3]
        for i, (_, _, at) in enumerate(arrivals):
            assert at == pytest.approx(1.0 + (i + 1) * serialization)

    def test_fifo_order_survives_mixed_sizes_under_congestion(self):
        """A large envelope ahead of small ones delays them behind it —
        the queue never reorders, whatever the sizes."""
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=50.0))
        net.degrade(squeeze=4.0)  # effective 12.5 B/tick
        ship(nodes["a"], "b", "big", entries=20)
        ship(nodes["a"], "b", "tiny", entries=0)
        ship(nodes["a"], "b", "mid", entries=3)
        sim.run_until_idle()
        assert [payload for _, payload, _ in arrivals] == ["big", "tiny", "mid"]
        big_at = arrivals[0][2]
        assert big_at == pytest.approx(1.0 + wire_size(20) / 12.5)
        assert arrivals[1][2] > big_at  # queued strictly behind

    def test_link_queues_are_independent_per_src_dst_pair(self):
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=10.0))
        ship(nodes["a"], "b", "slow-link", entries=10)
        ship(nodes["c"], "b", "other-link", entries=1)
        sim.run_until_idle()
        times = {payload: at for _, payload, at in arrivals}
        # c->b does not wait behind a->b's 98.4-tick transmission.
        assert times["other-link"] == pytest.approx(1.0 + wire_size(1) / 10.0)

    def test_backlog_drains_at_link_rate(self):
        sim, net, nodes, _ = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=100.0))
        ship(nodes["a"], "b", "x", entries=10)
        assert net.link_backlog("a", "b") == pytest.approx(wire_size(10) / 100.0)
        assert net.link_backlog("a", "c") == 0.0
        sim.run_until_idle()
        assert net.link_backlog("a", "b") == 0.0

    def test_max_transmission_delay_high_water(self):
        sim, net, nodes, _ = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=100.0))
        assert net.max_transmission_delay == 0.0
        ship(nodes["a"], "b", "x", entries=5)
        ship(nodes["a"], "b", "y", entries=5)  # queues behind x
        serialization = wire_size(5) / 100.0
        assert net.max_transmission_delay == pytest.approx(2 * serialization)


class TestCongestionAndSlowNodes:
    def test_squeezes_compose_multiplicatively_and_restore(self):
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=100.0))
        halved = net.degrade(squeeze=2.0)
        net.degrade(squeeze=3.0)
        assert net.effective_bandwidth("a", "b") == pytest.approx(100.0 / 6.0)
        net.restore(halved)
        assert net.effective_bandwidth("a", "b") == pytest.approx(100.0 / 3.0)
        with pytest.raises(TypeError):
            net.restore(3.0)  # a factor is not a handle
        assert net.effective_bandwidth("a", "b") == pytest.approx(100.0 / 3.0)
        net.restore_all()
        assert net.effective_bandwidth("a", "b") == pytest.approx(100.0)

    def test_the_names_the_benchmark_squeezes_through_are_degrade_and_restore(self):
        sim, net, nodes, _ = build(NetworkConfig(bandwidth=100.0))
        squeeze = net.add_bandwidth_squeeze(4.0)
        assert net.bandwidth_squeeze == 4.0
        net.remove_bandwidth_squeeze(squeeze)
        assert net.bandwidth_squeeze == 1.0

    def test_slow_node_multiplies_serialization_too(self):
        """A gray-failure node's NIC serializes slowly: SlowNode factors
        compose multiplicatively with the bandwidth model."""
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=100.0))
        net.degrade(delay_factor=4.0, node="b")
        ship(nodes["a"], "b", "x", entries=1)
        sim.run_until_idle()
        # Propagation 1.0 x 4 plus serialization 1.2 x 4.
        assert arrivals[0][2] == pytest.approx(4.0 * (1.0 + wire_size(1) / 100.0))

    def test_invalid_squeeze_rejected(self):
        sim, net, nodes, _ = build(NetworkConfig(bandwidth=100.0))
        with pytest.raises(ValueError):
            net.degrade(squeeze=0.0)
        with pytest.raises(ValueError):
            net.degrade(delay_factor=-1.0)


class TestDelayMatrix:
    def config(self):
        matrix = DelayMatrix()
        matrix.set_link("az-a", "az-a", delay=0.5, bandwidth=1000.0)
        matrix.set_link("az-a", "az-b", delay=10.0, bandwidth=100.0)
        return NetworkConfig(base_delay=2.0, jitter=0.0, bandwidth=500.0,
                             delay_matrix=matrix)

    def build_domains(self):
        sim = Simulator(seed=1)
        net = Network(sim, self.config())
        arrivals = []
        for name, domain in (("a1", "az-a"), ("a2", "az-a"), ("b1", "az-b"),
                             ("c1", "az-c")):
            # Bare endpoints: a node accepts only parcel tuples, and these
            # raw probes measure the link model itself.
            net.register(name, lambda msg, name=name: arrivals.append(
                (name, msg.payload, sim.now)))
            net.set_domain(name, domain)
        return sim, net, arrivals

    def test_intra_domain_fast_path_and_inter_domain_rtt(self):
        sim, net, arrivals = self.build_domains()
        net.send("a1", "a2", "inbox", "intra", size_bytes=1000)
        net.send("a1", "b1", "inbox", "inter", size_bytes=1000)
        sim.run_until_idle()
        times = {payload: at for _, payload, at in arrivals}
        assert times["intra"] == pytest.approx(0.5 + 1000 / 1000.0)
        assert times["inter"] == pytest.approx(10.0 + 1000 / 100.0)

    def test_unlisted_pair_falls_back_to_config_defaults(self):
        sim, net, arrivals = self.build_domains()
        net.send("a1", "c1", "inbox", "default", size_bytes=1000)
        sim.run_until_idle()
        assert arrivals[0][2] == pytest.approx(2.0 + 1000 / 500.0)

    def test_symmetric_set_link_installs_both_directions(self):
        matrix = DelayMatrix()
        matrix.set_link("x", "y", delay=7.0)
        assert matrix.link("y", "x").delay == 7.0
        matrix.set_link("p", "q", delay=3.0, symmetric=False)
        assert matrix.link("q", "p") is None

    def test_uniform_matrix_covers_all_pairs(self):
        matrix = DelayMatrix.uniform(["az-a", "az-b", "az-c"],
                                     intra_delay=0.5, inter_delay=8.0,
                                     inter_bandwidth=64.0)
        assert matrix.link("az-b", "az-b").delay == 0.5
        assert matrix.link("az-a", "az-c").delay == 8.0
        assert matrix.link("az-c", "az-a").bandwidth == 64.0

    def test_matrix_only_config_prices_no_serialization(self):
        """A matrix that only refines delay leaves unlisted-bandwidth links
        unpriced: delivery pays the matrix delay but no serialization."""
        matrix = DelayMatrix()
        matrix.set_link("az-a", "az-b", delay=5.0)
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0,
                                         delay_matrix=matrix))
        arrivals = []
        a = Node("a", sim, net, domain="az-a")
        b = Node("b", sim, net, domain="az-b")
        b.on("inbox", lambda msg: arrivals.append(sim.now))
        ship(a, "b", "x", entries=50)
        sim.run_until_idle()
        assert arrivals == [pytest.approx(5.0)]


class TestByteConservation:
    def test_enqueued_equals_delivered_plus_dropped(self):
        """The conservation ledger balances under drops, partitions,
        duplicates and unknown destinations once the simulation is idle."""
        sim = Simulator(seed=7)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5,
                                         drop_rate=0.3, duplicate_rate=0.2,
                                         bandwidth=200.0))
        a = Node("a", sim, net)
        b = Node("b", sim, net)
        b.on("inbox", lambda msg: None)
        rng = random.Random(13)
        for i in range(60):
            ship(a, "b", i, entries=rng.randrange(0, 8))
        part = net.partition({"a"}, {"b"})
        for i in range(10):
            ship(a, "b", f"cut-{i}", entries=2)
        net.heal(part)
        for i in range(10):
            ship(a, "ghost", f"ghost-{i}", entries=1)
        sim.run_until_idle()
        stats = net.link_byte_stats()
        assert stats  # the model was on, so the ledger exists
        for link, stat in sorted(stats.items(), key=repr):
            assert stat["enqueued_bytes"] == (
                stat["delivered_bytes"] + stat["dropped_bytes"]), (link, stat)

    def test_partition_installed_mid_flight_accounts_drop(self):
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(base_delay=5.0, jitter=0.0,
                                         bandwidth=1000.0))
        a = Node("a", sim, net)
        b = Node("b", sim, net)
        b.on("inbox", lambda msg: None)
        ship(a, "b", "x", entries=3)
        net.partition({"a"}, {"b"})  # cut while the message is in flight
        sim.run_until_idle()
        stat = net.link_byte_stats()[("a", "b")]
        assert stat["dropped_bytes"] == stat["enqueued_bytes"] == wire_size(3)
        assert stat["delivered_bytes"] == 0

    def test_send_time_drop_is_ledgered_immediately(self):
        """A message dropped at send time (partitioned link) charges the
        ledger atomically — enqueued and dropped together, never entering
        in-flight — so the conservation invariant holds at every instant,
        not only once idle.  Regression: the send-path drop branches used
        to skip the ledger entirely, leaving dropped sends unaccounted."""
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0,
                                         bandwidth=1000.0))
        a = Node("a", sim, net)
        b = Node("b", sim, net)
        b.on("inbox", lambda msg: None)
        net.partition({"a"}, {"b"})
        ship(a, "b", "x", entries=3)
        stat = net.link_byte_stats()[("a", "b")]  # before any event runs
        assert stat["enqueued_bytes"] == stat["dropped_bytes"] == wire_size(3)
        assert stat["in_flight_bytes"] == 0

    def test_in_flight_balances_mid_run(self):
        """While a priced message is still travelling, its bytes sit in
        ``in_flight_bytes`` and the three-term balance already holds."""
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(base_delay=5.0, jitter=0.0,
                                         bandwidth=1000.0))
        a = Node("a", sim, net)
        b = Node("b", sim, net)
        b.on("inbox", lambda msg: None)
        ship(a, "b", "x", entries=3)
        stat = net.link_byte_stats()[("a", "b")]
        assert stat["in_flight_bytes"] == wire_size(3)
        assert stat["enqueued_bytes"] == (stat["delivered_bytes"]
                                          + stat["dropped_bytes"]
                                          + stat["in_flight_bytes"])
        sim.run_until_idle()
        stat = net.link_byte_stats()[("a", "b")]
        assert stat["in_flight_bytes"] == 0
        assert stat["delivered_bytes"] == wire_size(3)


def assert_conserved(net):
    for link, stat in net.link_byte_stats().items():
        assert stat["in_flight_bytes"] >= 0, (link, stat)
        assert stat["enqueued_bytes"] == (
            stat["delivered_bytes"] + stat["dropped_bytes"]
            + stat["in_flight_bytes"]), (link, stat)


class TestModelSwitchedMidFlight:
    """A delivery (or in-flight drop) resolves the byte ledger iff its send
    charged it.  Regression: ``_deliver`` re-derived the gate, so pricing
    the links while a message was on the wire credited bytes that were
    never enqueued (``in_flight_bytes`` -120 — the e2e KVS workloads price
    their links after the preload, exactly this switch), and un-pricing
    them stranded ``in_flight_bytes`` above zero forever."""

    @staticmethod
    def build(**config):
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(base_delay=5.0, jitter=0.0, **config))
        arrivals = []
        net.register("b", arrivals.append)
        return sim, net, arrivals

    def test_sent_unpriced_delivered_priced_charges_nothing(self):
        sim, net, arrivals = self.build()
        net.observatory = LinkObservatory()
        net.send("a", "b", "inbox", "x", size_bytes=120)
        net.config.bandwidth = 1000.0  # priced while the message is in flight
        sim.run_until_idle()
        assert len(arrivals) == 1
        assert_conserved(net)
        assert all(not any(stat.values())
                   for stat in net.link_byte_stats().values())
        # The latency recorder and the observatory follow the delivery-time
        # gate: the delivery is observed, in the window of its send time.
        assert list(net.metrics.latency("net.delivery").samples) == [5.0]
        window = net.observatory.window(0)[("a", "b")]
        assert (window.sent_messages, window.delivered_messages) == (0, 1)

    def test_sent_priced_delivered_unpriced_resolves_its_bytes(self):
        sim, net, arrivals = self.build(bandwidth=1000.0)
        net.send("a", "b", "inbox", "x", size_bytes=120)
        assert net.link_byte_stats()[("a", "b")]["in_flight_bytes"] == 120
        net.config.bandwidth = None  # model off before the delivery
        sim.run_until_idle()
        assert len(arrivals) == 1
        assert net.link_byte_stats()[("a", "b")] == {
            "enqueued_bytes": 120, "delivered_bytes": 120,
            "dropped_bytes": 0, "in_flight_bytes": 0}
        assert net.metrics.latency("net.delivery").count == 0

    def test_mid_flight_drop_resolves_only_what_its_send_charged(self):
        sim, net, arrivals = self.build(bandwidth=1000.0)
        net.observatory = LinkObservatory()
        net.send("a", "b", "inbox", "priced", size_bytes=120)
        net.config.bandwidth = None
        net.send("c", "b", "inbox", "unpriced", size_bytes=77)
        net.config.nic_bandwidth = 500.0  # on again, by another knob
        net.partition({"a", "c"}, {"b"})  # both are dropped at delivery
        sim.run_until_idle()
        assert arrivals == [] and net.messages_dropped == 2
        assert_conserved(net)
        assert net.link_byte_stats() == {("a", "b"): {
            "enqueued_bytes": 120, "delivered_bytes": 0,
            "dropped_bytes": 120, "in_flight_bytes": 0}}
        dropped = {link: window.dropped_bytes
                   for link, window in net.observatory.window(0).items()}
        assert dropped == {("a", "b"): 120, ("c", "b"): 77}


class TestTransmissionReadback:
    def test_dropped_send_carries_no_transmission_cost(self):
        """A sent message carries its own cost: a priced send's message
        carries that send's cost, and a same-instant send that the
        partition eats carries the zero tuple — never the previous send's
        cost, which callers would ledger as phantom ticks."""
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0,
                                         bandwidth=100.0))
        a = Node("a", sim, net)
        b = Node("b", sim, net)
        b.on("inbox", lambda msg: None)
        sent = ship(a, "b", "x", entries=1)
        assert sent.transmission == (
            0.0, pytest.approx(wire_size(1) / 100.0), 0.0)
        net.partition({"a"}, {"b"})
        dropped = ship(a, "b", "y", entries=1)  # same instant
        assert dropped.transmission == (0.0, 0.0, 0.0)

    def test_drop_lottery_send_carries_no_transmission_cost(self):
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0,
                                         drop_rate=1.0, bandwidth=100.0))
        a = Node("a", sim, net)
        Node("b", sim, net).on("inbox", lambda msg: None)
        assert ship(a, "b", "x", entries=1).transmission == (
            0.0, 0.0, 0.0)


class TestModelOffEquivalence:
    """With no bandwidth and no matrix, the network is the pre-model one."""

    def test_no_ledger_no_transmission_state(self):
        sim, net, nodes, arrivals = build(NetworkConfig(base_delay=1.0,
                                                        jitter=0.0))
        sent = ship(nodes["a"], "b", "x", entries=500)
        sim.run_until_idle()
        assert arrivals[0][2] == pytest.approx(1.0)  # size cost no time
        assert net.link_byte_stats() == {}
        assert sent.transmission == (0.0, 0.0, 0.0)
        assert net.max_transmission_delay == 0.0

    def test_rng_consumption_matches_pre_model_formula(self):
        """Model off must draw exactly the jitter samples the size-blind
        network drew — replayed here against a twin RNG — so seeded traces
        recorded before the model existed stay valid."""
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=2.0, drop_rate=0.25))
        sends = 40
        for i in range(sends):
            ship(nodes["a"], "b", i, entries=i % 5)
        expected = []
        twin = random.Random(1)  # the simulator's seed
        for i in range(sends):
            if twin.random() < 0.25:
                continue  # the drop lottery consumed one draw
            expected.append((i, 1.0 + 2.0 * twin.random()))
        sim.run_until_idle()
        got = sorted((payload, at) for _, payload, at in arrivals)
        assert got == [(i, pytest.approx(at)) for i, at in sorted(expected)]


#: Digest of a full chaos scenario with the transmission model *off*
#: (link_bandwidth=None): the exact pre-model event trace.
MODEL_OFF_DIGEST_SCRIPT = """
import dataclasses
import hashlib
from repro.chaos import run_scenario, standard_schedule, fast_config, state_digest

config = dataclasses.replace(fast_config(), link_bandwidth=None)
result = run_scenario(11, standard_schedule(), config=config, trace=True)
trace = "\\n".join(f"{t:.9f} {label}" for t, label in result.env.simulator.trace)
payload = trace + "\\n" + state_digest(result.env)
print(hashlib.sha256(payload.encode()).hexdigest())
"""


def digest_under_hashseed(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC + os.pathsep * bool(env.get("PYTHONPATH")) \
        + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", MODEL_OFF_DIGEST_SCRIPT],
                            capture_output=True, text=True, check=True, env=env)
    return result.stdout.strip()


class TestModelOffCrossHashseedTrace:
    def test_model_off_trace_byte_identical_across_pythonhashseed(self):
        """The model-off chaos trace — the pre-model execution — must not
        fork between interpreters with different hash salts (the same
        contract the two CI jobs pin for the model-on profile)."""
        assert digest_under_hashseed("1") == digest_under_hashseed("31337")
