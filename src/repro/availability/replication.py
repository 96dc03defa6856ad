"""Replicated execution of a HydroLogic program.

Each :class:`ReplicaNode` hosts a full
:class:`~repro.core.interpreter.SingleNodeInterpreter` for the program.
Every operation — forwarded by the proxy, delivered by the coordination
layer (consensus log or 2PC, chosen by the compiler for non-monotone
endpoints) or applied by the deployment — enters through
:meth:`ReplicaNode.apply`.  Replicas converge for monotone (lattice) state
without coordination, the Anna/CALM execution model, by delta gossip:

* the program state stamps every committed or merged-in change in a
  :class:`~repro.core.state.ChangeLog`;
* each round a replica sends each peer one ``gossip`` parcel
  ``{"entries", "since", "seq", "seen"}``: the rows and vars changed after
  ``since`` (what it already shipped to that peer), its own latest stamp,
  and the highest of *the peer's* stamps it holds without a gap;
* that ``seen`` is the acknowledgement, and it belongs to the receiver: a
  replica that loses its state reports 0 again and each peer ships it
  everything once.  There is no ack message and no periodic full round;
* changes a peer leaves unconfirmed for ``RETRANSMIT_AFTER_ROUNDS`` rounds
  are shipped again from its confirmed stamp, with their current values.

An entry adopted unchanged from a peer is not offered back to that peer the
first time round, provided the peer has confirmed something before (a
confirmation that falls back is how its loss of state shows); a re-shipment
carries everything, which is what returns a state-losing replica's own
writes to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional

from repro.cluster.network import Message
from repro.cluster.node import Node
from repro.core.interpreter import SingleNodeInterpreter
from repro.core.program import HydroProgram
from repro.core.state import ChangeLog

#: ``network.metrics`` counters of the gossip ledger: stamps handed out, and
#: entries shipped for the first time, again after a missing ack, and again
#: because the peer lost its state.  ``fresh <= logged x peers`` always.
LOGGED_CHANGES = "replica.gossip.logged_changes"
FRESH_ENTRIES = "replica.gossip.fresh_entries"
RETRANSMIT_ENTRIES = "replica.gossip.retransmit_entries"
REFILL_ENTRIES = "replica.gossip.refill_entries"

#: Rounds a peer may leave shipped changes unconfirmed before they are
#: shipped again.  An ack rides the peer's next parcel, so it is at least
#: one round behind; two keeps a fault-free run free of retransmissions.
RETRANSMIT_AFTER_ROUNDS = 2
#: What a parcel's three stamps cost on the wire, in entries.
WATERMARK_ENTRIES = 1

#: The key an :meth:`ReplicaNode.apply` result travels under, by status.
RESULT_KEY = {"ok": "value", "rejected": "detail"}


@dataclass
class _PeerSync:
    """Gossip stamps kept about one peer; all zero is "fully unsynced"."""

    #: Highest of the peer's stamps held here without a gap (reported back).
    seen: int = 0
    #: Highest local stamp the peer last reported holding.
    confirmed: int = 0
    #: Highest local stamp already shipped to the peer.
    shipped: int = 0
    #: Consecutive rounds that found shipped changes unconfirmed.
    overdue: int = 0
    #: Stamps up to here were shipped before the peer lost its state.
    refill_upto: int = 0


class ReplicaNode(Node):
    """A node hosting one replica of the program."""

    def __init__(self, node_id, simulator, network, program: HydroProgram,
                 domain="default", gossip_interval: Optional[float] = 10.0,
                 peers: Iterable[Hashable] = ()) -> None:
        super().__init__(node_id, simulator, network, domain)
        self.program = program
        self.gossip_interval = gossip_interval
        self.requests_served = 0
        self.peers = [peer for peer in peers if peer != node_id]
        self._boot(first_stamp=0)
        self.on("invoke", self._on_invoke)
        self.on("gossip", self._on_gossip)
        self.on("ordered", self._on_ordered)
        self._arm_gossip()

    def _boot(self, first_stamp: int) -> None:
        """An empty interpreter, a log that goes on from ``first_stamp``, and
        no memory of any peer."""
        self.interpreter = SingleNodeInterpreter(self.program, node_id=self.node_id)
        self.change_log = ChangeLog(first_stamp)
        self.interpreter.state.change_log = self.change_log
        self._sync: dict[Hashable, _PeerSync] = {
            peer: _PeerSync() for peer in self.peers}

    def set_peers(self, peers: Iterable[Hashable]) -> None:
        """Replace the peer list; a peer not gossiped with before starts unsynced."""
        self.peers = [peer for peer in peers if peer != self.node_id]
        self._sync = {peer: self._sync.get(peer) or _PeerSync()
                      for peer in self.peers}

    # -- request handling -----------------------------------------------------------

    def apply(self, handler: str, args: dict) -> tuple[str, Any]:
        """Run one invocation as its own tick: ``("ok", value)`` or
        ``("rejected", detail)``."""
        request = self.interpreter.call(handler, **args)
        before = self.change_log.seq
        outcome = self.interpreter.run_tick()
        self.network.metrics.increment(LOGGED_CHANGES, self.change_log.seq - before)
        if request in outcome.rejected:
            return "rejected", outcome.rejected[request]
        return "ok", outcome.responses.get(request)

    def _on_invoke(self, message: Message) -> None:
        """Apply a client operation locally and reply to the proxy."""
        payload = message.payload
        self.requests_served += 1
        status, result = self.apply(payload["handler"], payload["args"])
        reply = {"request_id": payload["request_id"], "status": status,
                 RESULT_KEY[status]: result, "replica": self.node_id}
        self.send(message.source, "reply", reply, entries=1)

    def _on_ordered(self, message: Message) -> None:
        """Apply an operation delivered through the coordination layer (no reply)."""
        self.apply(message.payload["handler"], message.payload["args"])

    # -- anti-entropy -----------------------------------------------------------------

    def _arm_gossip(self) -> None:
        if self.gossip_interval:
            self.set_timer(self.gossip_interval, self._gossip_tick,
                           label=f"gossip@{self.node_id}")

    def _gossip_tick(self) -> None:
        self.push_gossip()
        self._arm_gossip()

    def push_gossip(self) -> None:
        """One round: one parcel per peer, sized by what it carries.

        An idle round still sends the stamps — they are the acknowledgement
        the peer is waiting for — and is charged ``WATERMARK_ENTRIES``.
        """
        for peer in self.peers:
            parcel = self._parcel_for(peer, self._sync[peer])
            self.queue(peer, "gossip", parcel,
                       entries=len(parcel["entries"]) + WATERMARK_ENTRIES)

    def _parcel_for(self, peer: Hashable, sync: _PeerSync) -> dict:
        since = sync.shipped
        if sync.confirmed < sync.shipped:
            sync.overdue += 1
            if sync.overdue >= RETRANSMIT_AFTER_ROUNDS:
                # The ack is overdue (lost parcel, lost ack, or a peer that
                # lost its state): go back to what the peer confirmed.
                since, sync.overdue = sync.confirmed, 0
        else:
            sync.overdue = 0
        # An entry adopted from this peer is not offered back to it — once it
        # has confirmed something: only a confirmation that falls tells us it
        # lost its state (and needs its own writes back), and 0 cannot fall.
        echo = sync.confirmed == 0
        # Filled in log order, so the payload is the same under every
        # PYTHONHASHSEED.
        kinds: dict = {}
        for item, stamp, source in self.change_log.since(since):
            if stamp > sync.shipped:
                if echo or source != peer:
                    kinds[item] = FRESH_ENTRIES
            elif stamp <= sync.refill_upto:
                kinds[item] = REFILL_ENTRIES
            else:
                kinds[item] = RETRANSMIT_ENTRIES
        entries = self.interpreter.state.export(kinds)
        metrics = self.network.metrics
        for item in entries:
            metrics.increment(kinds[item])
        sync.shipped = self.change_log.seq
        return {"entries": entries, "since": since, "seq": self.change_log.seq,
                "seen": sync.seen}

    def _on_gossip(self, message: Message) -> None:
        payload = message.payload
        peer = message.source
        sync = self._sync.get(peer)
        if sync is not None:
            if payload["since"] <= sync.seen:
                sync.seen = max(sync.seen, payload["seq"])
            confirmed = payload["seen"]
            if confirmed < sync.confirmed:
                # The peer holds less than it did: it lost its state.  Next
                # round, ship it everything again (reporting 0, it is also
                # offered its own writes back).
                sync.refill_upto = sync.shipped
                sync.overdue = RETRANSMIT_AFTER_ROUNDS
            elif confirmed > sync.confirmed:
                sync.overdue = 0
            sync.confirmed = confirmed
        before = self.change_log.seq
        self.interpreter.state.merge_entries(payload["entries"], source=peer)
        self.network.metrics.increment(LOGGED_CHANGES, self.change_log.seq - before)

    # -- failure hooks -----------------------------------------------------------------

    def recover(self, lose_state: bool = False) -> None:
        """Recover and re-arm the gossip timer that :meth:`Node.crash` cancelled."""
        was_down = not self.alive
        super().recover(lose_state)
        if was_down:
            self._arm_gossip()

    def reset_state(self) -> None:
        """Volatile recovery: state, log and every stamp about a peer are lost.

        Reporting ``seen = 0`` is what makes each peer refill this replica.
        Only the log's numbering carries on, so a stamp a peer confirmed
        before the crash is never reused for a different change.
        """
        self._boot(first_stamp=self.change_log.seq)


@dataclass
class ReplicatedEndpoint:
    """Book-keeping for one endpoint's replica set (used by the deployment)."""

    handler: str
    replicas: list[Hashable]
    coordination: str = "none"

    def replica_count(self) -> int:
        return len(self.replicas)
