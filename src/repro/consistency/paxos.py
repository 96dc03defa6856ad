"""A replicated consensus log (multi-Paxos style) for total order broadcast.

Serializable endpoints compile to state-machine replication: every request
is appended to a consensus log and replicas apply log entries in slot order,
so all replicas observe the same sequence of non-monotone effects.  The
implementation is leader-based multi-Paxos in the common case:

* the leader assigns the next slot and sends ``accept(ballot, slot, value)``
  to all replicas;
* replicas ack unless they have promised a higher ballot;
* once a majority (including the leader itself) acks, the entry is *chosen*,
  the leader broadcasts ``decide`` and every replica applies entries in slot
  order;
* ``decide`` is sent once: a learner that missed one is told to ``learn``
  a peer's chosen slots from the first one it has not applied.

Leader failover is supported through an explicit ``campaign`` phase (phase
1 / prepare): a replica proposes a higher ballot, collects promises carrying
the highest accepted value per slot, and re-proposes them — enough machinery
to exercise availability experiments without a full reconfiguration stack.

All messaging rides the shared transport: ``accept`` and ``campaign`` are
RPCs (the transport retries a lost request and the acceptor's memoized
``accept_ack``/``promise`` is re-served on a duplicate — Paxos is already
idempotent under both, so at-least-once delivery is free robustness), and
traffic one event queues to one peer — e.g. a burst of proposals, or the
re-proposals after winning a campaign — coalesces into a single envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.cluster.network import Message
from repro.cluster.node import DEFAULT_DOMAIN, Node

#: ``network.metrics`` counter of ``learn`` requests sent; 0 fault-free.
LEARN_REQUESTS = "paxos.learn_requests"


@dataclass
class LogEntry:
    slot: int
    value: Any
    ballot: tuple[int, str]


class PaxosReplica(Node):
    """One consensus participant: proposer (when leader), acceptor and learner."""

    def __init__(self, node_id, simulator, network, peers: list[Hashable],
                 domain=DEFAULT_DOMAIN, apply_entry: Callable[[int, Any], None] | None = None,
                 is_leader: bool = False) -> None:
        super().__init__(node_id, simulator, network, domain)
        self.peers = [peer for peer in peers if peer != node_id]
        self.apply_entry = apply_entry or (lambda slot, value: None)
        self.is_leader = is_leader
        self.ballot: tuple[int, str] = (1, str(node_id)) if is_leader else (0, str(node_id))
        self.promised_ballot: tuple[int, str] = (0, "")
        self.accepted: dict[int, LogEntry] = {}
        self.chosen: dict[int, Any] = {}
        self.applied_up_to = -1
        self.next_slot = 0
        self._ack_counts: dict[int, set[Hashable]] = {}
        self._pending_callbacks: dict[int, Callable[[int, Any], None]] = {}
        self._learning = False
        self.on("accept", self._on_accept)
        self.on("accept_ack", self._on_accept_ack)
        self.on("decide", self._on_decide)
        self.on("learn", self._on_learn)
        self.on("learned", self._on_learned)
        self.on("campaign", self._on_campaign)
        self.on("promise", self._on_promise)
        self._campaign_promises: dict[tuple[int, str], list[dict[int, LogEntry]]] = {}

    # -- client API (leader only) --------------------------------------------------

    @property
    def cluster_size(self) -> int:
        return len(self.peers) + 1

    @property
    def majority(self) -> int:
        return self.cluster_size // 2 + 1

    def propose(self, value: Any,
                on_chosen: Optional[Callable[[int, Any], None]] = None) -> Optional[int]:
        """Append ``value`` to the log.  Returns the slot, or None if not leader."""
        if not self.is_leader or not self.alive:
            return None
        slot = self.next_slot
        self.next_slot += 1
        entry = LogEntry(slot, value, self.ballot)
        self.accepted[slot] = entry
        self._ack_counts[slot] = {self.node_id}
        if on_chosen is not None:
            self._pending_callbacks[slot] = on_chosen
        for peer in self.peers:
            self.request(peer, "accept", (self.ballot, slot, value), entries=1)
        self._maybe_choose(slot)
        return slot

    # -- acceptor ---------------------------------------------------------------------

    def _on_accept(self, message: Message) -> None:
        ballot, slot, value = message.payload
        ballot = tuple(ballot)
        if ballot >= self.promised_ballot:
            self.promised_ballot = ballot
            self.accepted[slot] = LogEntry(slot, value, ballot)
            self.reply(message, "accept_ack", (ballot, slot, self.node_id))

    def _on_accept_ack(self, message: Message) -> None:
        ballot, slot, acker = message.payload
        if tuple(ballot) != self.ballot or slot in self.chosen:
            return
        self._ack_counts.setdefault(slot, set()).add(acker)
        self._maybe_choose(slot)

    def _maybe_choose(self, slot: int) -> None:
        if slot in self.chosen:
            return
        if len(self._ack_counts.get(slot, ())) >= self.majority:
            entry = self.accepted[slot]
            self._record_chosen(slot, entry.value)
            for peer in self.peers:
                self.queue(peer, "decide", (slot, entry.value), entries=1)

    # -- learner ----------------------------------------------------------------------

    def _on_decide(self, message: Message) -> None:
        slot, value = message.payload
        self._record_chosen(slot, value)

    def _record_chosen(self, slot: int, value: Any) -> None:
        if slot in self.chosen:
            return
        self.chosen[slot] = value
        # A chosen slot never counts acks again (``_on_accept_ack`` ignores
        # it), so its ack set goes now rather than living as long as the log.
        self._ack_counts.pop(slot, None)
        self.next_slot = max(self.next_slot, slot + 1)
        callback = self._pending_callbacks.pop(slot, None)
        if callback is not None:
            callback(slot, value)
        self._apply_in_order()

    def _apply_in_order(self) -> None:
        while self.applied_up_to + 1 in self.chosen:
            self.applied_up_to += 1
            self.apply_entry(self.applied_up_to, self.chosen[self.applied_up_to])

    def learn(self, peer: Hashable) -> None:
        """Ask ``peer`` for the chosen slots past the last one applied here;
        one request in flight at a time."""
        if self.alive and not self._learning:
            self._learning = True
            self.network.metrics.increment(LEARN_REQUESTS)
            self.request(peer, "learn", self.applied_up_to + 1,
                         on_timeout=self._learn_done)

    def _learn_done(self) -> None:
        self._learning = False

    def _on_learn(self, message: Message) -> None:
        slots = sorted(slot for slot in self.chosen if slot >= message.payload)
        self.reply(message, "learned", [(slot, self.chosen[slot]) for slot in slots],
                   entries=len(slots))

    def _on_learned(self, message: Message) -> None:
        self._learn_done()
        for slot, value in message.payload:
            self._record_chosen(slot, value)

    def crash(self) -> None:
        super().crash()
        self._learn_done()      # the request died with the transport

    # -- leader election (phase 1) -------------------------------------------------------

    def campaign(self) -> None:
        """Try to become leader with a higher ballot."""
        number = max(self.ballot[0], self.promised_ballot[0]) + 1
        self.ballot = (number, str(self.node_id))
        self.promised_ballot = self.ballot
        self._campaign_promises[self.ballot] = [dict(self.accepted)]
        for peer in self.peers:
            self.request(peer, "campaign", self.ballot)
        self._maybe_win(self.ballot)

    def _on_campaign(self, message: Message) -> None:
        ballot = tuple(message.payload)
        if ballot >= self.promised_ballot:
            self.promised_ballot = ballot
            self.is_leader = False
            self.reply(message, "promise", (ballot, dict(self.accepted)),
                       entries=len(self.accepted))

    def _on_promise(self, message: Message) -> None:
        ballot, accepted = message.payload
        ballot = tuple(ballot)
        if ballot != self.ballot or ballot not in self._campaign_promises:
            return
        self._campaign_promises[ballot].append(accepted)
        self._maybe_win(ballot)

    def _maybe_win(self, ballot: tuple[int, str]) -> None:
        promises = self._campaign_promises.get(ballot, [])
        if len(promises) >= self.majority and not self.is_leader:
            self.is_leader = True
            # Re-propose the highest-ballot accepted value for every known slot.
            merged: dict[int, LogEntry] = {}
            for accepted in promises:
                for slot, entry in accepted.items():
                    if slot not in merged or entry.ballot > merged[slot].ballot:
                        merged[slot] = entry
            for slot, entry in sorted(merged.items()):
                if slot not in self.chosen:
                    self.accepted[slot] = LogEntry(slot, entry.value, ballot)
                    self._ack_counts[slot] = {self.node_id}
                    for peer in self.peers:
                        self.request(peer, "accept", (ballot, slot, entry.value),
                                     entries=1)
            self.next_slot = max([self.next_slot] + [slot + 1 for slot in merged])


class ConsensusLog:
    """A convenience wrapper bundling a replica group into one log object."""

    def __init__(self, simulator, network, replica_ids: list[Hashable],
                 apply_entry: Callable[[Hashable, int, Any], None] | None = None,
                 domains: dict[Hashable, Hashable] | None = None) -> None:
        self.simulator = simulator
        self.replicas: dict[Hashable, PaxosReplica] = {}
        domains = domains or {}
        for index, replica_id in enumerate(replica_ids):
            def apply_fn(slot, value, rid=replica_id):
                if apply_entry is not None:
                    apply_entry(rid, slot, value)

            self.replicas[replica_id] = PaxosReplica(
                replica_id,
                simulator,
                network,
                peers=list(replica_ids),
                domain=domains.get(replica_id, DEFAULT_DOMAIN),
                apply_entry=apply_fn,
                is_leader=(index == 0),
            )

    @property
    def leader(self) -> Optional[PaxosReplica]:
        for replica in self.replicas.values():
            if replica.is_leader and replica.alive:
                return replica
        return None

    def append(self, value: Any,
               on_chosen: Optional[Callable[[int, Any], None]] = None) -> Optional[int]:
        leader = self.leader
        if leader is None:
            return None
        return leader.propose(value, on_chosen)

    def elect(self, replica_id: Hashable) -> None:
        """Force a leadership campaign at ``replica_id`` (used after failures)."""
        self.replicas[replica_id].campaign()

    def chosen_values(self, replica_id: Hashable) -> list[Any]:
        replica = self.replicas[replica_id]
        return [replica.chosen[slot] for slot in sorted(replica.chosen)]
