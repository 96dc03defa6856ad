"""Simulated nodes: processes that host mailboxes, handlers and timers.

A :class:`Node` is the unit of deployment and of failure.  Hydroflow
fragments, KVS shards, consensus participants and FaaS workers are all
implemented as nodes (or as components owned by a node).  Nodes can crash —
after which they ignore all traffic and timers — and recover, optionally
losing their volatile state.

Every node owns a :class:`~repro.cluster.transport.Transport`, its network
endpoint: the network delivers everything addressed to the node to
:meth:`Transport.deliver`, which checks liveness and calls the mailbox
handler registered with :meth:`Node.on`.  A node emits and accepts one wire
form, a tuple of typed parcels under ``TRANSPORT_MAILBOX``: the sender
declares how many entries a payload carries and the transport prices it via
``wire_size``.  There is one send path: :meth:`Node.queue` (one envelope
per destination when the current event returns) and the RPC helpers built
on it (:meth:`Node.request`, :meth:`Node.reply`, :meth:`Node.forward`) are
the substrate every protocol in the tree builds on.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

from repro.cluster.network import Message, Network
from repro.cluster.simulator import Event, Label, Simulator
from repro.cluster.transport import RpcPolicy, Transport

#: The failure domain of a node built without one.
DEFAULT_DOMAIN = "default"


class Node:
    """A simulated machine/process with mailboxes, timers and a transport."""

    def __init__(
        self,
        node_id: Hashable,
        simulator: Simulator,
        network: Network,
        domain: Hashable = DEFAULT_DOMAIN,
    ) -> None:
        self.node_id = node_id
        self.simulator = simulator
        self.network = network
        self.domain = domain
        self.alive = True
        #: Clock-skew model: ``clock()`` reads simulated time shifted by
        #: ``clock_offset``; timers scheduled while ``timer_drift != 1``
        #: fire early/late by that factor (a fast/slow local clock).
        self.clock_offset = 0.0
        self.timer_drift = 1.0
        self._timers: list[Event] = []
        self.transport = Transport(network, node_id, self)
        network.register(node_id, self.transport.deliver)
        network.set_domain(node_id, domain)

    # -- handler registration ---------------------------------------------------

    def on(self, mailbox: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages addressed to ``mailbox``."""
        self.transport.handlers[mailbox] = handler

    def handler_for(self, mailbox: str) -> Optional[Callable[[Message], None]]:
        return self.transport.handlers.get(mailbox)

    # -- messaging --------------------------------------------------------------

    def queue(self, destination: Hashable, mailbox: str, payload: Any,
              entries: int = 0) -> None:
        """Queue a typed message; sends to one peer from the same event
        share an envelope (one ``WIRE_HEADER_BYTES``).  Crashed nodes send
        nothing."""
        if not self.alive:
            return
        self.transport.queue(destination, mailbox, payload, entries)

    def request(self, destination: Hashable, mailbox: str, payload: Any, *,
                entries: int = 0,
                policy: Optional[RpcPolicy] = None,
                on_reply: Optional[Callable[[Any], None]] = None,
                on_timeout: Optional[Callable[[], None]] = None) -> Optional[int]:
        """Issue an RPC (timeouts, capped retries, dedup); see Transport.request."""
        if not self.alive:
            return None
        return self.transport.request(destination, mailbox, payload,
                                      entries=entries, policy=policy,
                                      on_reply=on_reply, on_timeout=on_timeout)

    def reply(self, message: Message, mailbox: str, payload: Any,
              entries: int = 0) -> None:
        """Answer ``message`` (RPC-aware: routes to the original requester)."""
        if not self.alive:
            return
        self.transport.reply(message, mailbox, payload, entries)

    def forward(self, message: Message, destination: Hashable) -> None:
        """Relay the RPC request ``message`` onward, preserving its reply
        routing (see :meth:`Transport.forward`)."""
        if not self.alive:
            return
        self.transport.forward(message, destination)

    # -- clock ------------------------------------------------------------------

    def clock(self) -> float:
        """This node's local clock: simulated time plus any injected skew."""
        return self.simulator.now + self.clock_offset

    # -- timers -----------------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], None],
                  label: Label = "") -> Event:
        """Schedule a callback that only fires if the node is still alive.

        The delay is stretched by ``timer_drift``: a node with a slow local
        clock (drift > 1) fires its timers late, exactly how clock skew
        perturbs cadence-based protocols (gossip, RPC retries).
        """

        def guarded() -> None:
            if self.alive:
                callback()

        event = self.simulator.schedule(delay * self.timer_drift, guarded,
                                        label or self._default_timer_label)
        self._timers.append(event)
        if len(self._timers) > 256:
            # Prune spent timers (fired: time <= now; or cancelled) so a
            # long-lived node that re-arms a cadence (a gossip tick every
            # round) stays O(live).  RPC timeouts never land here: the
            # transport puts them straight on the heap.
            now = self.simulator.now
            self._timers = [timer for timer in self._timers
                            if not timer.cancelled and timer.time > now]
        return event

    def _default_timer_label(self) -> str:
        return f"timer@{self.node_id}"

    # -- failure ----------------------------------------------------------------

    def crash(self) -> None:
        """Crash the node: cancel timers, drop queued/pending transport state."""
        self.alive = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.transport.on_crash()

    def recover(self, lose_state: bool = False) -> None:
        """Recover a crashed node; a live node is left as it is.

        ``lose_state`` is a hook for subclasses that hold volatile state —
        the base class has none, but overriding implementations (KVS
        replicas, consensus participants) use it to model disk vs memory.
        A node that never crashed lost nothing, so it keeps its state and
        timers whatever ``lose_state`` says.  Messages that arrived while
        crashed stay lost, matching fail-stop semantics.
        """
        if self.alive:
            return
        self.alive = True
        if lose_state:
            self.reset_state()

    def reset_state(self) -> None:
        """Clear volatile state on recovery; base nodes have none."""

    def __repr__(self) -> str:
        status = "up" if self.alive else "down"
        return f"Node({self.node_id!r}, domain={self.domain!r}, {status})"
