"""Replicated execution of a HydroLogic program.

Each :class:`ReplicaNode` hosts a full
:class:`~repro.core.interpreter.SingleNodeInterpreter` for the program.
Operations forwarded by the proxy are applied locally and the node
periodically gossips its state to its peers, so replicas converge for
monotone (lattice) state without any coordination — the Anna/CALM execution
model.  Non-monotone endpoints are expected to be routed through a
coordination mechanism chosen by the compiler (consensus log or 2PC); the
replica node simply exposes an ``apply_ordered`` entry point for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional

from repro.cluster.network import Message
from repro.cluster.node import Node
from repro.core.interpreter import SingleNodeInterpreter
from repro.core.program import HydroProgram


class ReplicaNode(Node):
    """A node hosting one replica of the program."""

    def __init__(self, node_id, simulator, network, program: HydroProgram,
                 domain="default", gossip_interval: Optional[float] = 10.0,
                 peers: Iterable[Hashable] = ()) -> None:
        super().__init__(node_id, simulator, network, domain)
        self.program = program
        self.interpreter = SingleNodeInterpreter(program, node_id=node_id)
        self.peers = [peer for peer in peers if peer != node_id]
        self.gossip_interval = gossip_interval
        self.requests_served = 0
        self.on("invoke", self._on_invoke)
        self.on("gossip", self._on_gossip)
        self.on("ordered", self._on_ordered)
        if gossip_interval:
            self.set_timer(gossip_interval, self._gossip_tick, label=f"gossip@{node_id}")

    def set_peers(self, peers: Iterable[Hashable]) -> None:
        self.peers = [peer for peer in peers if peer != self.node_id]

    # -- request handling -----------------------------------------------------------

    def _on_invoke(self, message: Message) -> None:
        """Apply a client operation locally and reply to the proxy."""
        payload = message.payload
        handler = payload["handler"]
        args = payload["args"]
        request_id = payload["request_id"]
        self.requests_served += 1
        interp_request = self.interpreter.call(handler, **args)
        outcome = self.interpreter.run_tick()
        if interp_request in outcome.rejected:
            reply = {"request_id": request_id, "status": "rejected",
                     "detail": outcome.rejected[interp_request], "replica": self.node_id}
        else:
            reply = {"request_id": request_id, "status": "ok",
                     "value": outcome.responses.get(interp_request), "replica": self.node_id}
        self.send(message.source, "reply", reply, entries=1)

    def _on_ordered(self, message: Message) -> None:
        """Apply an operation delivered through the coordination layer (no reply)."""
        payload = message.payload
        self.interpreter.call(payload["handler"], **payload["args"])
        self.interpreter.run_tick()

    # -- anti-entropy -----------------------------------------------------------------

    def _gossip_tick(self) -> None:
        if not self.alive:
            return
        self.push_gossip()
        if self.gossip_interval:
            self.set_timer(self.gossip_interval, self._gossip_tick, label=f"gossip@{self.node_id}")

    def push_gossip(self) -> None:
        """Send a snapshot of local state to every peer for lattice merge.

        One snapshot serves every peer: receivers only read it, and it shares
        its lattice values with this replica's live rows (``ProgramState``
        never mutates a stored value in place), so a push copies row dicts,
        not contents.
        """
        snapshot = self.interpreter.state.snapshot()
        # Size the payload by what it actually carries (rows + vars), so the
        # network simulator charges bandwidth honestly.
        entry_count = (sum(len(table) for table in snapshot.tables.values())
                       + len(snapshot.vars))
        for peer in self.peers:
            self.queue(peer, "gossip", snapshot, entries=entry_count)

    def _on_gossip(self, message: Message) -> None:
        # The payload is shared with the sender's other peers: read-only here.
        self.interpreter.state.merge_from(message.payload)

    # -- failure hooks -----------------------------------------------------------------

    def reset_state(self) -> None:
        """Volatile recovery: rebuild an empty interpreter (state is lost)."""
        self.interpreter = SingleNodeInterpreter(self.program, node_id=self.node_id)


@dataclass
class ReplicatedEndpoint:
    """Book-keeping for one endpoint's replica set (used by the deployment)."""

    handler: str
    replicas: list[Hashable]
    coordination: str = "none"

    def replica_count(self) -> int:
        return len(self.replicas)
