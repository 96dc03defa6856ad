"""The unified transport layer: typed sizing, batching, RPC, determinism.

Three contract families:

* **One wire form** — every node message is a tuple of typed parcels
  under ``TRANSPORT_MAILBOX``; wire cost always derives from declared entry
  counts; ``Network.send`` has no size default, and ``Node.send`` takes no
  raw ``size_bytes``.
* **Batching** — parcels queued to one destination by one event share an
  envelope (one header), flush order is deterministic, crashed senders ship nothing,
  and batched delivery is observation-equivalent to unbatched delivery for
  a whole KVS/Paxos scenario.
* **RPC** — request/reply with timeouts, capped retries, responder-side
  duplicate suppression (memoized replies) and requester-side duplicate
  reply suppression; forwards preserve reply routing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    Network,
    NetworkConfig,
    Node,
    Parcel,
    RpcPolicy,
    Simulator,
    TRANSPORT_MAILBOX,
    TransportConfig,
    WIRE_ENTRY_BYTES,
    WIRE_HEADER_BYTES,
    wire_size,
)
from repro.cluster.transport import DEDUP_WINDOW


def build_pair(batching=True, config=None, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, config or NetworkConfig(base_delay=1.0, jitter=0.0),
                  transport=TransportConfig(batching=batching))
    a = Node("a", sim, net)
    b = Node("b", sim, net)
    return sim, net, a, b


class TestTypedSizing:
    def test_network_send_requires_explicit_size(self):
        sim, net, a, b = build_pair()
        with pytest.raises(TypeError):
            net.send("a", "b", "inbox", "payload")

    def test_send_prices_by_entry_count(self):
        sim, net, a, b = build_pair()
        before = net.bytes_sent
        a.queue("b", "inbox", "x", entries=7)
        sim.run_until_idle()
        assert net.bytes_sent - before == wire_size(7)

    def test_zero_entry_message_costs_one_header(self):
        sim, net, a, b = build_pair()
        before = net.bytes_sent
        a.queue("b", "inbox", "ack", entries=0)
        sim.run_until_idle()
        assert net.bytes_sent - before == WIRE_HEADER_BYTES

    def test_node_send_has_no_raw_size_override(self):
        """Senders declare entries, and only ``Network.send`` itself takes
        bytes."""
        sim, net, a, b = build_pair()
        with pytest.raises(TypeError):
            a.queue("b", "inbox", "x", size_bytes=999)
        sim.run_until_idle()
        assert net.bytes_sent == 0


class TestBatching:
    def test_same_instant_parcels_share_one_envelope(self):
        sim, net, a, b = build_pair()
        got = []
        b.on("inbox", lambda msg: got.append(msg.payload))
        for i in range(10):
            a.queue("b", "inbox", i, entries=1)
        sim.run_until_idle()
        assert got == list(range(10))
        assert net.messages_sent == 1  # one envelope on the wire
        assert net.bytes_sent == WIRE_HEADER_BYTES + 10 * WIRE_ENTRY_BYTES
        assert net.metrics.counter("transport.envelopes_sent") == 1
        assert a.transport.logical_messages_sent == 10
        assert net.metrics.counter("transport.header_bytes_saved") == 9 * WIRE_HEADER_BYTES

    def test_batching_disabled_ships_one_envelope_per_parcel(self):
        sim, net, a, b = build_pair(batching=False)
        got = []
        b.on("inbox", lambda msg: got.append(msg.payload))
        for i in range(10):
            a.queue("b", "inbox", i, entries=1)
        sim.run_until_idle()
        assert got == list(range(10))
        assert net.messages_sent == 10
        assert net.metrics.counter("transport.header_bytes_saved") == 0

    def test_flush_order_is_sorted_by_destination(self):
        sim, net, a, b = build_pair()
        c = Node("c", sim, net)
        order = []
        b.on("inbox", lambda msg: order.append("b"))
        c.on("inbox", lambda msg: order.append("c"))
        a.queue("c", "inbox", 1)
        a.queue("b", "inbox", 1)
        sim.run_until_idle()
        assert order == ["b", "c"]  # sorted destinations, same delay config

    def test_mailbox_stats_track_logical_traffic(self):
        sim, net, a, b = build_pair()
        a.queue("b", "inbox", "x", entries=3)
        a.queue("b", "other", "y", entries=2)
        sim.run_until_idle()
        assert a.transport.mailbox_stats["inbox"] == {"messages": 1, "entries": 3}
        assert a.transport.mailbox_stats["other"] == {"messages": 1, "entries": 2}

    def test_crashed_sender_ships_nothing(self):
        sim, net, a, b = build_pair()
        got = []
        b.on("inbox", got.append)
        a.queue("b", "inbox", "doomed")
        a.crash()
        sim.run_until_idle()
        assert got == []
        assert a.transport.queued_parcels() == 0

    def test_crash_between_queue_and_deferred_flush_ships_nothing(self):
        """The same fail-stop rule from *inside* an event: the callback
        queues, then the node dies before the callback returns — the
        deferred flush finds a dead owner and an empty queue."""
        sim, net, a, b = build_pair()
        got = []
        b.on("inbox", got.append)

        def queue_then_die():
            a.queue("b", "inbox", "doomed")
            a.crash()

        sim.schedule(1.0, queue_then_die)
        sim.run_until_idle()
        assert got == [] and net.messages_sent == 0
        assert a.transport.queued_parcels() == 0

    def test_flush_is_a_deferred_callback_not_an_event(self):
        """One event queues three parcels to two peers: they ship when its
        callback returns — no flush event, label or heap entry — and
        between two events nothing is ever queued unsent."""
        sim, net, a, b = build_pair()
        c = Node("c", sim, net)
        sim.tracing = True
        unsent_between_events = []

        def burst():
            a.queue("b", "inbox", 1, entries=1)
            a.queue("c", "inbox", 2, entries=1)
            a.queue("b", "inbox", 3, entries=1)
            assert net.messages_sent == 0  # still inside the callback

        sim.schedule(1.0, burst, label="burst")
        while sim.step():
            unsent_between_events.append(a.transport.queued_parcels())
        assert net.messages_sent == 2  # b's two parcels shared a header
        assert net.metrics.counter("transport.header_bytes_saved") == WIRE_HEADER_BYTES
        assert set(unsent_between_events) == {0}
        assert sim.events_processed == 3  # burst + two deliveries
        assert [label.split()[0] for _, label in sim.trace] == [
            "burst", "deliver", "deliver"]

    def test_two_events_at_one_instant_do_not_share_a_header(self):
        """The declared narrowing: the coalescing scope is one event (and
        what it defers), not one simulated instant."""
        sim, net, a, b = build_pair()
        sim.schedule(1.0, lambda: a.queue("b", "inbox", 1, entries=1))
        sim.schedule(1.0, lambda: a.queue("b", "inbox", 2, entries=1))
        sim.run_until_idle()
        assert net.messages_sent == 2
        assert net.metrics.counter("transport.header_bytes_saved") == 0

    def test_metrics_registry_aggregates_across_nodes(self):
        sim, net, a, b = build_pair()
        a.queue("b", "inbox", 1, entries=1)
        b.queue("a", "inbox", 2, entries=1)
        sim.run_until_idle()
        assert net.metrics.counter("transport.envelopes_sent") == 2
        assert net.metrics.counter("transport.logical_messages_sent") == 2
        assert net.bytes_sent == 2 * wire_size(1)

    def test_each_transport_count_has_one_home(self):
        """Bytes are the network's, envelopes and saved headers the
        registry's; a node keeps only its logical-message share."""
        sim, net, a, b = build_pair()
        c = Node("c", sim, net)
        for node in (a, b, c):
            node.on("inbox", lambda msg: None)
        for sender, destination, parcels in ((a, "b", 3), (b, "c", 1), (c, "a", 2)):
            for i in range(parcels):
                sender.queue(destination, "inbox", i, entries=2)
        sim.run_until_idle()
        counters = net.metrics.counters()
        assert "transport.bytes_sent" not in counters
        assert net.bytes_sent == 3 * WIRE_HEADER_BYTES + 6 * 2 * WIRE_ENTRY_BYTES
        assert counters["transport.envelopes_sent"] == net.messages_sent == 3
        assert counters["transport.header_bytes_saved"] == (6 - 3) * WIRE_HEADER_BYTES
        assert [node.transport.logical_messages_sent for node in (a, b, c)] == [3, 1, 2]
        assert counters["transport.logical_messages_sent"] == 6


class TestNoParcelOutlivesItsEvent:
    """Why a tick-driven sender needs no flush of its own: ``queue`` binds a
    deferred flush whenever the queues were empty, and that flush empties
    them all, so between two events nothing is ever queued unsent."""

    @settings(max_examples=60, deadline=None)
    @given(sends=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2),
                                    st.integers(1, 2), st.integers(0, 3)),
                          max_size=25),
           ticks=st.integers(0, 4))
    def test_queued_parcels_ship_when_their_event_returns(self, sends, ticks):
        sim = Simulator(seed=3)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
        nodes = [Node(name, sim, net) for name in ("a", "b", "c")]
        got = []
        for node in nodes:
            node.on("inbox", lambda msg: got.append(msg.payload))
        expected = []

        def queue(sender, destination, payload, entries):
            expected.append(payload)
            sender.queue(destination, "inbox", payload, entries=entries)

        for index, (at, sender, hop, entries) in enumerate(sends):
            destination = nodes[(sender + hop) % 3].node_id
            sim.schedule(at, lambda args=(nodes[sender], destination, index, entries):
                         queue(*args))

        # A cadence operator that queues to every peer and never flushes.
        rounds = iter(range(ticks))

        def on_tick():
            tick = next(rounds, None)
            if tick is None:
                return
            for peer in ("b", "c"):
                queue(nodes[0], peer, ("tick", tick, peer), 1)
            nodes[0].set_timer(2.0, on_tick)

        nodes[0].set_timer(2.0, on_tick)
        queue(nodes[1], "a", "outside any event", 1)    # ships on the first step

        while sim.step():
            assert [node.transport.queued_parcels() for node in nodes] == [0, 0, 0]
        assert sorted(got, key=repr) == sorted(expected, key=repr)


class TestRpc:
    def echo_responder(self, node):
        def handler(msg):
            node.reply(msg, "echo_reply", {"echo": msg.payload})
        node.on("echo", handler)

    def test_request_reply_round_trip(self):
        sim, net, a, b = build_pair()
        self.echo_responder(b)
        replies = []
        a.request("b", "echo", "hello", on_reply=replies.append)
        sim.run_until_idle()
        assert replies == [{"echo": "hello"}]
        assert a.transport.pending_requests == 0

    def test_reply_dispatches_to_ordinary_mailbox_handler_too(self):
        sim, net, a, b = build_pair()
        self.echo_responder(b)
        seen = []
        a.on("echo_reply", lambda msg: seen.append(msg.payload))
        a.request("b", "echo", "hi")
        sim.run_until_idle()
        assert seen == [{"echo": "hi"}]

    def test_lost_request_is_retried_and_succeeds(self):
        sim, net, a, b = build_pair()
        self.echo_responder(b)
        replies = []
        part = net.partition({"a"}, {"b"})
        a.request("b", "echo", "retry-me",
                  policy=RpcPolicy(timeout=10.0, max_attempts=2),
                  on_reply=replies.append)
        sim.run(until=5.0)
        net.heal(part)  # heal before the retry fires at t=10
        sim.run_until_idle()
        assert replies == [{"echo": "retry-me"}]
        assert net.metrics.counter("transport.rpc_retries") == 1

    def test_capped_retries_then_timeout_callback(self):
        sim, net, a, b = build_pair()
        timeouts = []
        net.partition({"a"}, {"b"})
        a.request("b", "echo", "void",
                  policy=RpcPolicy(timeout=5.0, max_attempts=3),
                  on_timeout=lambda: timeouts.append(sim.now))
        sim.run_until_idle()
        assert timeouts == [15.0]  # 3 attempts x 5.0
        assert net.metrics.counter("transport.rpc_retries") == 2
        assert a.transport.pending_requests == 0

    def test_rpc_timeout_is_stretched_by_the_owners_timer_drift(self):
        """ClockSkew pin: the timeout goes straight on the heap at
        ``timeout x timer_drift``, like any node timer."""
        sim, net, a, b = build_pair()
        a.timer_drift = 2.0
        timeouts = []
        net.partition({"a"}, {"b"})
        a.request("b", "echo", "void",
                  policy=RpcPolicy(timeout=5.0, max_attempts=2),
                  on_timeout=lambda: timeouts.append(sim.now))
        sim.run_until_idle()
        assert timeouts == [20.0]  # 2 attempts x 5.0 x drift 2.0

    def test_crash_cancels_rpc_timeouts_and_none_fires_on_a_dead_node(self):
        sim, net, a, b = build_pair()
        sim.tracing = True
        timeouts = []
        net.partition({"a"}, {"b"})
        a.request("b", "echo", "void",
                  policy=RpcPolicy(timeout=5.0, max_attempts=3),
                  on_timeout=lambda: timeouts.append(sim.now))
        sim.run(until=7.0)  # first timeout fired, the retry's is armed
        assert net.metrics.counter("transport.rpc_retries") == 1
        a.crash()
        assert a.transport.pending_requests == 0
        assert sim.cancelled_pending == 1  # the armed timeout, tombstoned
        sim.run_until_idle()
        a.recover()
        sim.run_until_idle()
        assert timeouts == []
        assert net.metrics.counter("transport.rpc_retries") == 1
        assert [label for _, label in sim.trace] == ["rpc-timeout@a#0"]

    def test_finished_requests_leave_no_reference_cycles(self):
        """A request's timeout event is ``pending.timer``; if the event's
        lazy label held ``pending`` back, every finished RPC would wait for
        the cycle collector (measured: -7 % ops/CPU-s on ``kvs_flat_read``).
        Everything an RPC allocates must die by reference count."""
        import gc

        sim, net, a, b = build_pair()
        self.echo_responder(b)
        gc.collect()
        gc.disable()
        try:
            for i in range(50):
                a.request("b", "echo", i)
            sim.run_until_idle()
            assert a.transport.pending_requests == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_duplicate_request_not_rehandled_reply_reserved(self):
        """A retried request whose *reply* was lost: the responder must not
        re-run the handler, but must re-send the memoized reply."""
        sim, net, a, b = build_pair()
        handled = []

        def handler(msg):
            handled.append(msg.payload)
            b.reply(msg, "echo_reply", {"echo": msg.payload})
        b.on("echo", handler)
        replies = []
        # Lose only the reply: open a total-loss window after the request is
        # sent (t=0) covering the reply send (t=1), closed before the retry.
        sim.schedule(0.5, lambda: setattr(net.config, "drop_rate", 1.0))
        sim.schedule(8.0, lambda: setattr(net.config, "drop_rate", 0.0))
        a.request("b", "echo", "once",
                  policy=RpcPolicy(timeout=10.0, max_attempts=2),
                  on_reply=replies.append)
        sim.run(until=9.0)
        assert handled == ["once"] and replies == []
        sim.run_until_idle()
        assert handled == ["once"]  # handler ran exactly once
        assert replies == [{"echo": "once"}]  # re-served memoized reply
        assert net.metrics.counter("transport.rpc_duplicate_requests") == 1

    def test_duplicate_reply_suppressed(self):
        sim, net, a, b = build_pair(
            config=NetworkConfig(base_delay=1.0, jitter=0.0, duplicate_rate=1.0))
        self.echo_responder(b)
        replies = []
        a.request("b", "echo", "dup", on_reply=replies.append)
        sim.run_until_idle()
        assert replies == [{"echo": "dup"}]
        assert net.metrics.counter("transport.rpc_duplicate_replies") >= 1

    def test_forward_preserves_reply_routing(self):
        sim, net, a, b = build_pair()
        c = Node("c", sim, net)
        b.on("work", lambda msg: b.forward(msg, "c"))
        c.on("work", lambda msg: c.reply(msg, "done", f"c-did-{msg.payload}"))
        replies = []
        a.request("b", "work", "task", on_reply=replies.append)
        sim.run_until_idle()
        assert replies == ["c-did-task"]

    def test_responder_crash_drops_dedup_memo_but_merge_idempotence_saves_us(self):
        sim, net, a, b = build_pair()
        handled = []
        b.on("echo", lambda msg: handled.append(msg.payload))
        net.partition({"a"}, {"b"})  # request lost entirely
        a.request("b", "echo", "x",
                  policy=RpcPolicy(timeout=5.0, max_attempts=2))
        sim.run(until=2.0)
        b.crash()
        b.recover()
        net.heal_all()
        sim.run_until_idle()
        assert handled == ["x"]  # the retry landed post-recovery

    def test_deferred_reply_still_routes_as_rpc(self):
        """A handler that answers after dispatch returns (from a timer)
        must still complete the RPC — and a retry must re-serve the
        deferred reply instead of re-running the handler."""
        sim, net, a, b = build_pair()
        handled = []

        def handler(msg):
            handled.append(msg.payload)
            b.set_timer(3.0, lambda: b.reply(msg, "echo_reply", "late"))
        b.on("echo", handler)
        replies = []
        a.request("b", "echo", "defer", on_reply=replies.append)
        sim.run_until_idle()
        assert handled == ["defer"]
        assert replies == ["late"]
        assert a.transport.pending_requests == 0

    def test_retry_reserves_deferred_reply(self):
        sim, net, a, b = build_pair()
        handled = []

        def handler(msg):
            handled.append(msg.payload)
            b.set_timer(3.0, lambda: b.reply(msg, "echo_reply", "late"))
        b.on("echo", handler)
        replies = []
        # Lose the deferred reply (sent at t=4): the retry at t=10 must hit
        # the dedup memo — handler not re-run, memoized late reply re-served.
        sim.schedule(3.5, lambda: setattr(net.config, "drop_rate", 1.0))
        sim.schedule(8.0, lambda: setattr(net.config, "drop_rate", 0.0))
        a.request("b", "echo", "defer",
                  policy=RpcPolicy(timeout=10.0, max_attempts=2),
                  on_reply=replies.append)
        sim.run_until_idle()
        assert handled == ["defer"]
        assert replies == ["late"]
        assert net.metrics.counter("transport.rpc_duplicate_requests") == 1

    def test_served_memo_keeps_the_newest_window(self):
        """After 3 x DEDUP_WINDOW requests the responder's memo holds
        exactly the newest DEDUP_WINDOW; a retry of a kept request re-serves
        its reply, a retry of an evicted one re-runs the handler."""
        sim, net, a, b = build_pair()
        handled = []

        def handler(msg):
            handled.append(msg.payload)
            b.reply(msg, "echo_reply", msg.payload)
        b.on("echo", handler)
        for n in range(3 * DEDUP_WINDOW):
            a.request("b", "echo", n)
        sim.run_until_idle()
        newest = [("a", n) for n in range(2 * DEDUP_WINDOW, 3 * DEDUP_WINDOW)]
        assert list(b.transport._served) == newest
        assert list(b.transport._served_order) == newest
        assert handled == list(range(3 * DEDUP_WINDOW))

        def retry(rpc_id):
            net.send("a", "b", TRANSPORT_MAILBOX,
                     (Parcel("echo", rpc_id, 0, rpc_id, "request", "a"),),
                     wire_size(0))
            sim.run_until_idle()

        kept = 3 * DEDUP_WINDOW - 1
        retry(kept)
        assert len(handled) == 3 * DEDUP_WINDOW  # not re-run
        assert net.metrics.counter("transport.rpc_duplicate_requests") == 1
        # The re-served reply reaches a, which has nothing pending for it.
        assert net.metrics.counter("transport.rpc_duplicate_replies") == 1

        retry(0)  # evicted: the handler runs again and is memoized newest
        assert handled[-1] == 0 and len(handled) == 3 * DEDUP_WINDOW + 1
        assert net.metrics.counter("transport.rpc_duplicate_requests") == 1
        assert list(b.transport._served) == newest[1:] + [("a", 0)]
        assert list(b.transport._served_order) == newest[1:] + [("a", 0)]

        # A crash forgets the memo and its order; the next window refills.
        b.crash()
        b.recover()
        assert b.transport._served == {} and not b.transport._served_order
        first = a.request("b", "echo", "after")
        for n in range(DEDUP_WINDOW):
            a.request("b", "echo", n)
        sim.run_until_idle()
        assert list(b.transport._served) == [
            ("a", rpc_id) for rpc_id in range(first + 1, first + 1 + DEDUP_WINDOW)]

    def test_crash_mid_envelope_stops_delivery_of_later_parcels(self):
        """Fail-stop parity with unbatched delivery: if an earlier parcel's
        handler crashes the node, the rest of the envelope is lost, not
        processed by a dead node — nor replayed once it recovers."""
        sim, net, a, b = build_pair()
        got = []

        def poison(msg):
            got.append(msg.payload)
            if msg.payload == "boom":
                b.crash()
        b.on("inbox", poison)
        for payload in ("ok", "boom", "after-1", "after-2"):
            a.queue("b", "inbox", payload, entries=1)
        sim.run_until_idle()
        assert got == ["ok", "boom"]
        b.recover()
        sim.run_until_idle()
        assert got == ["ok", "boom"]

    def test_forward_of_a_plain_message_raises(self):
        """Only an RPC request names a requester to answer; a plain message
        has nothing to forward, and the refusal ships nothing."""
        sim, net, a, b = build_pair()
        Node("c", sim, net)
        got = []
        b.on("bulk", got.append)
        a.queue("b", "bulk", "payload", entries=3)
        sim.run_until_idle()
        sent = net.messages_sent
        with pytest.raises(TypeError, match="RPC request"):
            b.forward(got[0], "c")
        sim.run_until_idle()
        assert net.messages_sent == sent

    def test_node_send_reaches_a_bare_endpoint_as_one_parcel(self):
        sim = Simulator(seed=3)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
        received = []
        net.register("peer", received.append)
        Node("solo", sim, net).queue("peer", "inbox", "raw", entries=3)
        sim.run_until_idle()
        [message] = received
        assert message.mailbox == TRANSPORT_MAILBOX
        assert message.payload == (Parcel("inbox", "raw", 3),)
        assert message.size_bytes == net.bytes_sent == wire_size(3)
        assert net.messages_sent == 1
        assert net.metrics.counter("transport.envelopes_sent") == 1


class TestObservationEquivalence:
    """Batched delivery must be an optimization only: for the same seed the
    final KVS and Paxos state is identical with batching on and off.

    The network is jittery but lossless: under loss the two modes draw the
    shared RNG a different number of times (fewer envelopes, fewer
    lotteries), so *which* message dies diverges by construction and only
    the lossless fixpoint is comparable.  Loss-path behaviour (retries,
    dedup, retransmission) is covered by the RPC tests above and the delta
    gossip suite.
    """

    def kvs_fixpoint(self, batching, seed=13):
        from repro.lattices import GCounter, SetUnion
        from repro.storage import KVSClient, LatticeKVS

        sim = Simulator(seed=seed)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5),
                      transport=TransportConfig(batching=batching))
        kvs = LatticeKVS(sim, net, shard_count=2, replication_factor=2,
                         gossip_interval=20.0)
        client = KVSClient("client", sim, net, kvs)
        for i in range(60):
            client.put(f"k-{i % 10}", SetUnion({f"v-{i}"}))
            client.put(f"c-{i % 5}", GCounter().increment(f"w-{i % 3}", 1))
        kvs.settle(2000.0)
        from repro.chaos import canonicalize
        return {
            key: canonicalize(kvs.get_merged(key))
            for i in range(10)
            for key in (f"k-{i}", f"c-{i % 5}")
        }

    def paxos_log(self, batching, seed=17):
        from repro.consistency import ConsensusLog

        sim = Simulator(seed=seed)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5),
                      transport=TransportConfig(batching=batching))
        log = ConsensusLog(sim, net, [f"r{i}" for i in range(5)])
        for j in range(20):
            log.append(f"v{j}")
        sim.run_until_idle()
        return {rid: log.chosen_values(rid) for rid in log.replicas}

    def test_kvs_final_state_identical(self):
        assert self.kvs_fixpoint(True) == self.kvs_fixpoint(False)

    def test_paxos_chosen_values_identical_and_complete(self):
        batched = self.paxos_log(True)
        unbatched = self.paxos_log(False)
        assert batched == unbatched
        assert batched["r0"] == [f"v{j}" for j in range(20)]


class TestSerializationTicks:
    """With the bandwidth model on, the transport ledgers transmission time."""

    def bandwidth_pair(self, bandwidth=100.0, batching=True):
        return build_pair(batching=batching,
                          config=NetworkConfig(base_delay=1.0, jitter=0.0,
                                               bandwidth=bandwidth))

    def test_node_send_ledgers_serialization(self):
        sim, net, a, b = self.bandwidth_pair()
        a.queue("b", "inbox", "x", entries=4)
        sim.run_until_idle()
        expected = wire_size(4) / 100.0
        assert net.metrics.counter("transport.serialization_ticks") == \
            pytest.approx(expected)

    def test_batched_envelope_serializes_once(self):
        """Ten parcels in one envelope pay one header's serialization; ten
        unbatched sends pay ten — batching amortizes *time*, not just
        header bytes."""
        sim_b, net_b, a_b, _ = self.bandwidth_pair()
        for i in range(10):
            a_b.queue("b", "inbox", i, entries=1)
        sim_b.run_until_idle()
        batched = net_b.metrics.counter("transport.serialization_ticks")

        sim_u, net_u, a_u, _ = self.bandwidth_pair(batching=False)
        for i in range(10):
            a_u.queue("b", "inbox", i, entries=1)
        sim_u.run_until_idle()
        unbatched = net_u.metrics.counter("transport.serialization_ticks")

        assert batched == pytest.approx(
            (WIRE_HEADER_BYTES + 10 * WIRE_ENTRY_BYTES) / 100.0)
        assert unbatched == pytest.approx(10 * wire_size(1) / 100.0)
        assert unbatched - batched == pytest.approx(
            9 * WIRE_HEADER_BYTES / 100.0)

    def test_queue_wait_ledgered_separately(self):
        sim, net, a, b = self.bandwidth_pair(batching=False)
        a.queue("b", "inbox", "first", entries=5)
        a.queue("b", "inbox", "second", entries=5)  # waits behind first
        assert net.metrics.counter("transport.queue_wait_ticks") == \
            pytest.approx(wire_size(5) / 100.0)

    def test_model_off_ledgers_nothing(self):
        sim, net, a, b = build_pair(batching=False)
        a.queue("b", "inbox", "x", entries=50)
        for i in range(5):
            a.queue("b", "inbox", i, entries=2)
        sim.run_until_idle()
        assert net.metrics.counter("transport.serialization_ticks") == 0.0
        assert net.metrics.counter("transport.queue_wait_ticks") == 0.0
