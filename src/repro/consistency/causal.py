"""Causal broadcast: coordination-free delivery respecting happens-before.

Causal consistency is the strongest level achievable without coordination
(and the level provided by the paper's Hydrocache work).  Each node tags its
broadcasts with a vector clock; receivers buffer a message until every
causally preceding message has been delivered, then deliver and advance
their own clock.  No acknowledgements, quorums or leaders are involved —
the protocol's only cost is metadata and buffering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.cluster.network import Message
from repro.cluster.node import DEFAULT_DOMAIN, Node
from repro.lattices import VectorClock


@dataclass(frozen=True)
class CausalMessage:
    """A broadcast payload tagged with its causal dependencies."""

    origin: Hashable
    sequence: int
    depends_on: VectorClock
    payload: Any


class CausalBroadcast(Node):
    """A node participating in causal broadcast."""

    def __init__(self, node_id, simulator, network, peers: list[Hashable],
                 domain=DEFAULT_DOMAIN,
                 deliver: Callable[[CausalMessage], None] | None = None) -> None:
        super().__init__(node_id, simulator, network, domain)
        self.peers = [peer for peer in peers if peer != node_id]
        self.deliver_callback = deliver or (lambda message: None)
        self.delivered_clock = VectorClock()
        self.delivered: list[CausalMessage] = []
        self._buffer: list[CausalMessage] = []
        self._sequence = 0
        self.on("causal", self._on_causal)

    # -- sending ------------------------------------------------------------------

    def broadcast(self, payload: Any) -> CausalMessage:
        """Broadcast a payload causally after everything delivered locally."""
        self._sequence += 1
        message = CausalMessage(
            origin=self.node_id,
            sequence=self._sequence,
            depends_on=self.delivered_clock,
            payload=payload,
        )
        # Deliver locally first (a node's own messages are causally ordered).
        self._deliver(message)
        for peer in self.peers:
            self.queue(peer, "causal", message, entries=1)
        return message

    # -- receiving ----------------------------------------------------------------

    def _on_causal(self, message: Message) -> None:
        self._buffer.append(message.payload)
        self._drain_buffer()

    def _drain_buffer(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for buffered in list(self._buffer):
                if self._deliverable(buffered):
                    self._buffer.remove(buffered)
                    self._deliver(buffered)
                    progressed = True

    def _deliverable(self, message: CausalMessage) -> bool:
        """FIFO from each origin plus all causal dependencies satisfied."""
        if self.delivered_clock.get(message.origin) != message.sequence - 1:
            return False
        return message.depends_on.leq(self.delivered_clock)

    def _deliver(self, message: CausalMessage) -> None:
        self.delivered.append(message)
        self.delivered_clock = self.delivered_clock.merge(
            VectorClock({message.origin: message.sequence})
        )
        self.deliver_callback(message)

    # -- introspection ----------------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def delivered_payloads(self) -> list[Any]:
        return [message.payload for message in self.delivered]
