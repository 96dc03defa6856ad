"""The shared-NIC stage of the transmission model: fan-out is not free.

Pins the NIC stage's contract: with ``NetworkConfig.nic_bandwidth`` priced,
every outbound message serializes through the sender's shared *uplink* FIFO before its per-link pipe, and through the
receiver's shared *downlink* FIFO after it — so a same-instant fan-out to
N peers contends at the source instead of enjoying N free parallel links,
and an incast toward one receiver queues at its downlink.  Also pins the
exactly-once composition rule: a gray-failure node factor multiplies each
serialization its endpoint touches once per stage, never the accumulated
pipeline time.
"""

import pytest

from repro.cluster import (
    DelayMatrix,
    Network,
    NetworkConfig,
    Node,
    Simulator,
    wire_size,
)
from probes import ship

#: wire_size(1): the probe size most tests use — one entry plus header.
PROBE = wire_size(1)  # 120 bytes


def build(config, nodes=("a", "b", "c", "d")):
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


class TestUplinkContention:
    def test_same_instant_fanout_serializes_through_sender_nic(self):
        """Three same-instant sends to three *different* peers share one
        uplink: arrivals space out by the NIC serialization time instead
        of landing together on three free parallel links."""
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, nic_bandwidth=100.0))
        for peer in ("b", "c", "d"):
            ship(nodes["a"], peer, peer, entries=1)
        sim.run_until_idle()
        stage = PROBE / 100.0  # 1.2 ticks up, 1.2 ticks down
        times = {payload: at for _, payload, at in arrivals}
        # k-th message waits (k-1) uplink slots, then serializes up + down.
        assert times["b"] == pytest.approx(1.0 + 2 * stage)
        assert times["c"] == pytest.approx(1.0 + 3 * stage)
        assert times["d"] == pytest.approx(1.0 + 4 * stage)

    def test_fanout_nic_wait_is_ledgered(self):
        sim, net, nodes, _ = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, nic_bandwidth=100.0))
        stage = PROBE / 100.0
        first = ship(nodes["a"], "b", "x", entries=1)
        second = ship(nodes["a"], "c", "y", entries=1)
        queue_wait, serialization, nic_wait = first.transmission
        assert (queue_wait, serialization, nic_wait) == (
            0.0, pytest.approx(2 * stage), 0.0)
        queue_wait, serialization, nic_wait = second.transmission
        assert queue_wait == 0.0
        assert serialization == pytest.approx(2 * stage)
        assert nic_wait == pytest.approx(stage)  # waited out the first uplink

    def test_incast_contends_at_receiver_downlink(self):
        """Three senders, one receiver: each sender's uplink is its own, so
        the three uplink passes overlap, but deliveries still serialize
        through the receiver's shared downlink queue."""
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, nic_bandwidth=100.0))
        for sender in ("a", "b", "c"):
            ship(nodes[sender], "d", sender, entries=1)
        sim.run_until_idle()
        stage = PROBE / 100.0
        times = {payload: at for _, payload, at in arrivals}
        # One uplink pass each (in parallel), then (k-1) downlink slots of
        # wait before the k-th message's own downlink pass.
        assert times["a"] == pytest.approx(1.0 + 2 * stage)
        assert times["b"] == pytest.approx(1.0 + 3 * stage)
        assert times["c"] == pytest.approx(1.0 + 4 * stage)

    def test_nic_backlog_accessors_track_both_directions(self):
        sim, net, nodes, _ = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, nic_bandwidth=100.0))
        ship(nodes["a"], "b", "x", entries=1)
        ship(nodes["a"], "c", "y", entries=1)
        stage = PROBE / 100.0
        assert net.nic_backlog("a") == pytest.approx(2 * stage)
        # Each downlink only holds its own message, queued behind the uplink.
        assert net.nic_backlog("b", downlink=True) == pytest.approx(2 * stage)
        assert net.nic_backlog("c", downlink=True) == pytest.approx(3 * stage)
        sim.run_until_idle()
        assert net.nic_backlog("a") == 0.0
        assert net.nic_backlog("b", downlink=True) == 0.0


class TestPipelineOrdering:
    def test_uplink_then_link_then_downlink(self):
        """With NIC and link both priced, the stages sequence — each starts
        at max(previous stage finish, its own FIFO horizon) — and the
        second message pays both an uplink wait and a link-queue wait."""
        sim, net, nodes, arrivals = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=60.0,
                          nic_bandwidth=120.0))
        up = PROBE / 120.0    # 1 tick per NIC pass
        pipe = PROBE / 60.0   # 2 ticks per link pass
        first = ship(nodes["a"], "b", "x", entries=1)
        second = ship(nodes["a"], "b", "y", entries=1)
        sim.run_until_idle()
        assert first.transmission == (
            0.0, pytest.approx(2 * up + pipe), 0.0)
        queue_wait, serialization, nic_wait = second.transmission
        assert serialization == pytest.approx(2 * up + pipe)
        # Waited 1 tick behind the first uplink pass...
        assert nic_wait == pytest.approx(up)
        # ...then 1 more tick for the link pipe to finish the first message.
        assert queue_wait == pytest.approx(up)
        times = {payload: at for _, payload, at in arrivals}
        assert times["x"] == pytest.approx(1.0 + 2 * up + pipe)
        # Second pipeline: uplink wait + link wait + own serializations.
        assert times["y"] == pytest.approx(1.0 + 2 * up + (2 * up + pipe))

    def test_unpriced_nic_leaves_link_only_arithmetic_untouched(self):
        """nic_bandwidth unset: the NIC stage is skipped entirely — the
        transmission tuple is the link-only one with nic_wait pinned 0."""
        sim, net, nodes, _ = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=60.0))
        message = ship(nodes["a"], "b", "x", entries=1)
        assert message.transmission == (0.0, pytest.approx(PROBE / 60.0), 0.0)
        assert net.nic_backlog("a") == 0.0

    def test_max_transmission_delay_includes_nic_stages(self):
        sim, net, nodes, _ = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, nic_bandwidth=100.0))
        ship(nodes["a"], "b", "x", entries=1)
        ship(nodes["a"], "c", "y", entries=1)
        stage = PROBE / 100.0
        # Second message: one uplink slot of wait + up + down serialization.
        assert net.max_transmission_delay == pytest.approx(3 * stage)


#: One bad number per validated field, and the field the error must name.
#: Each used to be accepted and to break (or silently skew) a later send.
INVALID_NUMBERS = {
    "base_delay": lambda: NetworkConfig(base_delay=-5.0),
    "jitter": lambda: NetworkConfig(jitter=-0.5),
    "drop_rate": lambda: NetworkConfig(drop_rate=1.5),
    "duplicate_rate": lambda: NetworkConfig(duplicate_rate=-0.1),
    "bandwidth": lambda: NetworkConfig(bandwidth=0.0),
    "nic_bandwidth": lambda: NetworkConfig(nic_bandwidth=-50.0),
    "LinkSpec.delay": lambda: DelayMatrix().set_link("x", "y", delay=-1.0),
    "LinkSpec.bandwidth":
        lambda: DelayMatrix().set_link("x", "y", bandwidth=-1.0),
}


class TestNicConfiguration:
    @pytest.mark.parametrize("case", sorted(INVALID_NUMBERS))
    def test_invalid_config_numbers_rejected(self, case):
        field = case.split(".")[-1]
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            INVALID_NUMBERS[case]()

    def test_boundary_config_numbers_accepted(self):
        NetworkConfig(base_delay=0.0, jitter=0.0, drop_rate=1.0,
                      duplicate_rate=0.0, bandwidth=None, nic_bandwidth=None)
        DelayMatrix().set_link("x", "y", delay=0.0, bandwidth=None)

    def test_congestion_squeezes_throttle_nics_too(self):
        sim, net, nodes, _ = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, nic_bandwidth=100.0))
        squeeze = net.degrade(squeeze=4.0)
        squeezed = ship(nodes["a"], "b", "x", entries=1)
        # Up and down, each at 100 / 4 bytes per tick.
        assert squeezed.transmission == (0.0, pytest.approx(2 * PROBE / 25.0),
                                         0.0)
        sim.run_until_idle()
        net.restore(squeeze)
        message = ship(nodes["a"], "b", "y", entries=1)
        assert message.transmission == (0.0, pytest.approx(2 * PROBE / 100.0),
                                        0.0)
        # With no NIC price, a squeeze leaves the NIC stages unpriced.
        sim, net, nodes, _ = build(
            NetworkConfig(base_delay=1.0, jitter=0.0, bandwidth=10.0))
        net.degrade(squeeze=4.0)
        ship(nodes["a"], "b", "x", entries=1)
        assert net.nic_backlog("a") == 0.0
        assert net.nic_backlog("b", downlink=True) == 0.0


class TestExactlyOnceComposition:
    """SlowNode x Congestion x DelayMatrix on the NIC path: every factor
    multiplies each serialization stage exactly once, never the
    accumulated pipeline time — stacking queue stages must not compound
    the gray-failure factor."""

    def geo_net(self):
        matrix = DelayMatrix()
        matrix.set_link("az-a", "az-b", delay=5.0, bandwidth=60.0)
        sim = Simulator(seed=1)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0,
                                         nic_bandwidth=120.0,
                                         delay_matrix=matrix))
        arrivals = []
        a = Node("a", sim, net, domain="az-a")
        b = Node("b", sim, net, domain="az-b")
        b.on("inbox", lambda msg: arrivals.append(sim.now))
        return sim, net, a, b, arrivals

    def test_slow_sender_times_squeeze_compose_once_per_stage(self):
        sim, net, a, b, arrivals = self.geo_net()
        net.degrade(delay_factor=3.0, node="a")
        net.degrade(squeeze=2.0)
        message = ship(a, "b", "x", entries=1)
        sim.run_until_idle()
        # uplink:   120 / (120/2) * 3         = 6   (sender factor once)
        # link:     120 / (60/2)  * 3 * 1     = 12  (both endpoint factors)
        # downlink: 120 / (120/2) * 1         = 2   (receiver factor only)
        queue_wait, serialization, nic_wait = message.transmission
        assert serialization == pytest.approx(6.0 + 12.0 + 2.0)
        assert queue_wait == 0.0 and nic_wait == 0.0
        # Propagation: matrix delay 5.0, multiplied by the slow endpoint.
        assert arrivals == [pytest.approx(20.0 + 5.0 * 3.0)]

    def test_slow_receiver_skips_the_uplink_factor(self):
        sim, net, a, b, arrivals = self.geo_net()
        net.degrade(delay_factor=3.0, node="b")
        message = ship(a, "b", "x", entries=1)
        sim.run_until_idle()
        # uplink: 120/120 = 1; link: 120/60 * 3 = 6; downlink: 120/120 * 3 = 3
        assert message.transmission == (0.0, pytest.approx(10.0), 0.0)
        assert arrivals == [pytest.approx(10.0 + 5.0 * 3.0)]

    def test_factor_does_not_compound_across_queue_waits(self):
        """Two back-to-back sends from a slow node: the second message's
        *waits* are the first message's factored serializations — the
        factor shows up in the stage costs it inherits, not squared."""
        sim, net, a, b, arrivals = self.geo_net()
        net.degrade(delay_factor=2.0, node="a")
        first = ship(a, "b", "x", entries=1)
        second = ship(a, "b", "y", entries=1)
        sim.run_until_idle()
        # Per message: uplink 120/120*2 = 2; link 120/60*2 = 4; down 1.
        assert first.transmission == (0.0, pytest.approx(7.0), 0.0)
        queue_wait, serialization, nic_wait = second.transmission
        assert serialization == pytest.approx(7.0)
        assert nic_wait == pytest.approx(2.0)   # first uplink pass, factored
        assert queue_wait == pytest.approx(2.0)  # remainder of first link pass
