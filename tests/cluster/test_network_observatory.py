"""The link observatory is attached by its reader.

A network files per-link windows only while a :class:`LinkObservatory` is
attached (``network.observatory``); with none, a priced send files nothing
and the ``net.delivery`` recorder still sees every delivery under its own
gate.  Attaching one observes the traffic and changes nothing else: the
twin-world property runs the same steps on a network with an observatory
and on one without and requires identical arrivals, ledgers and counters.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Network, NetworkConfig, Simulator
from repro.cluster.metrics import LinkObservatory, LinkWindowStats

BUCKET_WIDTH = 20.0


def priced(handler=lambda message: None):
    """A priced two-node network whose ``b`` hands arrivals to ``handler``."""
    sim = Simulator(seed=1)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0,
                                     bandwidth=1000.0))
    net.register("b", handler)
    return sim, net


def next_bucket(sim):
    """Deliver what is on the wire and move the clock one bucket on."""
    sim.schedule(BUCKET_WIDTH, lambda: None)
    sim.run_until_idle()


def windows():
    return sum(type(obj) is LinkWindowStats for obj in gc.get_objects())


def test_a_bare_priced_network_files_no_window():
    arrivals = []
    sim, net = priced(arrivals.append)
    before = windows()
    for _ in range(5):
        net.send("a", "b", "inbox", None, size_bytes=100)
        next_bucket(sim)
        net.send("a", "b", "inbox", None, size_bytes=300)  # dies in flight
        cut = net.partition({"a"}, {"b"})
        net.send("a", "b", "inbox", None, size_bytes=300)  # dies at the send
        next_bucket(sim)
        net.heal(cut)
    assert net.observatory is None
    assert windows() == before
    assert len(arrivals) == net.messages_delivered == 5
    assert net.messages_dropped == 10
    # Every delivery is recorded, at its own latency.
    assert net.metrics.latency("net.delivery").samples == pytest.approx(
        [1.1] * 5)


def test_an_observatory_attached_mid_run_sees_what_follows():
    sim, net = priced()
    for _ in range(3):
        net.send("a", "b", "inbox", None, size_bytes=100)
        next_bucket(sim)
    net.observatory = LinkObservatory(BUCKET_WIDTH)
    for size in (200, 300):
        net.send("a", "b", "inbox", None, size_bytes=size)
        next_bucket(sim)
    observatory = net.observatory
    assert observatory.buckets() == [3, 4]
    assert len(observatory) == 2
    stats = [observatory.window(bucket)[("a", "b")] for bucket in (3, 4)]
    assert [(stat.sent_messages, stat.sent_bytes, stat.delivered_messages)
            for stat in stats] == [(1, 200, 1), (1, 300, 1)]
    assert [stat.latency_max for stat in stats] == pytest.approx([1.2, 1.3])
    assert net.metrics.latency("net.delivery").count == 5


def test_run_length_retains_only_the_delivery_samples():
    """Memory flat in run length: a priced bare network sending one message
    per bucket retains ≤ 11 ``tracemalloc`` bytes per extra delivery (8.6
    measured on Python 3.11: the ``net.delivery`` sample, one packed double
    and the array's growth slack; 32 while a sample was a float object and
    its list slot, ≈ 256 while every send filed an observatory window)."""

    def retained(rounds):
        sim, net = priced()
        tracemalloc.start()
        try:
            for _ in range(rounds):
                net.send("a", "b", "inbox", None, size_bytes=100)
                next_bucket(sim)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert net.metrics.latency("net.delivery").count == rounds
        return held

    per_delivery = (retained(4000) - retained(1000)) / 3000
    assert per_delivery <= 11, per_delivery


NODES = ("a", "b", "c")
INDEX = st.integers(0, 3)
SEND = st.tuples(st.just("send"), st.sampled_from(NODES),
                 st.sampled_from(NODES), st.integers(1, 5000))
STEPS = st.one_of(
    SEND, SEND, SEND,
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.7, 5.0, 30.0])),
    st.tuples(st.just("degrade"), st.sampled_from([
        {"squeeze": 4.0}, {"delay_factor": 3.0},
        {"delay_factor": 2.0, "node": "b"}, {"drop_rate": 0.5}])),
    st.tuples(st.just("restore"), INDEX),
    st.tuples(st.just("partition"), st.sets(st.sampled_from(NODES),
                                            min_size=1, max_size=2),
              st.booleans()),
    st.tuples(st.just("heal"), INDEX),
    st.tuples(st.just("switch"), st.sampled_from(["bandwidth", "nic_bandwidth"]),
              st.sampled_from([None, 64.0, 1000.0])),
    st.tuples(st.just("switch"), st.just("drop_rate"),
              st.sampled_from([0.0, 0.3])),
    st.tuples(st.just("record"), st.booleans()),
)


class Twin:
    """One network driven by the shared steps, observed or not."""

    def __init__(self, config, observed):
        self.simulator = Simulator(seed=config["seed"])
        self.network = Network(self.simulator, NetworkConfig(
            **{name: value for name, value in config.items() if name != "seed"}))
        if observed:
            self.network.observatory = LinkObservatory()
        self.sent = []
        self.arrivals = []
        self.handles = []
        self.cuts = []
        for node in NODES:
            self.network.register(node, self.on_message)

    def on_message(self, message):
        self.arrivals.append((message.message_id, self.simulator.now))

    def apply(self, step):
        kind, *args = step
        network = self.network
        if kind == "send":
            source, destination, size = args
            message = network.send(source, destination, "inbox", None,
                                   size_bytes=size)
            self.sent.append((message.message_id, message.transmission))
        elif kind == "advance":
            self.simulator.run(until=self.simulator.now + args[0])
        elif kind == "degrade":
            self.handles.append(network.degrade(**args[0]))
        elif kind == "restore":
            if args[0] < len(self.handles):
                network.restore(self.handles.pop(args[0]))
        elif kind == "partition":
            group, oneway = args
            self.cuts.append(network.partition(group, set(NODES) - group,
                                               oneway=oneway))
        elif kind == "heal":
            if args[0] < len(self.cuts):
                network.heal(self.cuts.pop(args[0]))
        elif kind == "switch":
            setattr(network.config, *args)
        elif kind == "record":
            network.record_delivery_latency = args[0]

    def outcome(self):
        network = self.network
        return (self.sent, self.arrivals, self.simulator.now,
                network.link_byte_stats(),
                network.metrics.latency("net.delivery").samples,
                network.metrics.counters(),
                (network.messages_sent, network.messages_delivered,
                 network.messages_dropped, network.bytes_sent,
                 network.max_transmission_delay,
                 self.simulator.events_processed))


CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(0, 50),
    "jitter": st.sampled_from([0.0, 0.5]),
    "duplicate_rate": st.sampled_from([0.0, 0.3]),
    "bandwidth": st.sampled_from([None, 500.0]),
})


@given(CONFIGS, st.lists(STEPS, min_size=5, max_size=50))
@settings(max_examples=150, deadline=None)
def test_an_observatory_changes_nothing_it_observes(config, steps):
    observed, bare = Twin(config, observed=True), Twin(config, observed=False)
    for step in steps:
        observed.apply(step)
        bare.apply(step)
        assert observed.outcome() == bare.outcome()
    observed.simulator.run_until_idle()
    bare.simulator.run_until_idle()
    assert observed.outcome() == bare.outcome()
    assert bare.network.observatory is None
    # Each delivery the recorder saw was also counted in a window.
    observatory = observed.network.observatory
    delivered = sum(stat.delivered_messages
                    for bucket in observatory.buckets()
                    for stat in observatory.window(bucket).values())
    assert delivered == observed.network.metrics.latency("net.delivery").count
