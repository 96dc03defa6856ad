"""Replicated execution of a HydroLogic program.

Each :class:`ReplicaNode` hosts a full
:class:`~repro.core.interpreter.SingleNodeInterpreter` for the program.
Every operation enters through :meth:`ReplicaNode.apply`: a coordination-free
one as the proxy forwards it, a coordinated one (a consensus-log slot, for
the endpoints the compiler found non-monotone) by :meth:`~ReplicaNode.apply_ordered`.
Replicas converge for monotone (lattice) state without coordination, the
Anna/CALM execution model, by the watermark protocol of
:mod:`repro.cluster.watermark` over rows and vars, stamped in a
:class:`~repro.core.state.ChangeLog`.  Each round a replica sends each peer
one ``gossip`` parcel ``{"entries", "relayed", "since", "seq", "seen",
"delivered"[, "floor"][, "ordered"]}``: a window, which of its entries the
sender merely passes on, the acknowledgement, the lowest stamp all its
*other* peers confirmed of its log, and the stamp its log started at (absent
while 0).  Each stamp is one digest item, whatever the replica count.  The
acknowledgement rides the parcel and belongs to the receiver: a replica that
loses its state reports 0 again, and a peer that sees its confirmation fall
ships it everything once.

**A change is shipped by whoever is on the hook for it.**  A fresh window
carries only what this replica *owns*: what it changed itself, merged into
an item its log did not hold, or took over.  An entry adopted unchanged
from peer A that A owns becomes A's *ward* here, tagged with the ``seq`` of
A's parcel, and is shipped to nobody — except back to A while A has
confirmed nothing (only a confirmation that falls reveals that A lost its
state, and 0 cannot fall).  An entry of A's that *genuinely* merges into an
item the log holds — an own change, or another origin's ward, open or
released — is not stamped either: it becomes A's ward too, at A's tag, as
every part of the join already has an owner who ships it.  Once a round,
before the parcels are built, every origin's wards are reviewed:

* *released* when A's latest ``delivered`` is at or past the tag; a shared
  item stays warded until its last origin is released;
* *taken over* — the item stamped again as this replica's own, which
  closes every ward on it, so the ordinary acked path ships it to every
  peer — after ``RELAY_AFTER_ROUNDS`` reviews without release, or at once
  when the tag is at or below A's ``floor``.

Release is safe because a window always runs to the sender's current
``seq`` and an entry the sender owns is in every window that covers its
stamp: the first window from A that peer C accepts with ``seq >= tag`` was
built no earlier than the tagged parcel and carried A's part as of the tag
or later (if A had meanwhile adopted a larger value from D, the item is D's
ward at A and D, or A after it, is on the hook instead).  So "A says C
confirmed the tag" means C holds A's part — unless A's log no longer does: a
rebooted A sends an empty window over its old numbering, gets it confirmed,
and would vouch for entries it lost.  Its ``floor`` says which those are.
A shared item is released only once *each* origin vouched for its part, so
the join is held everywhere; a genuine merge into an item the log does not
hold has nobody else on the hook and is stamped.  ``delivered`` covers the
sender's peers but the receiver, which are the receiver's other peers: the
group is fixed when it is built, and every replica lists all of it.

What A merely passes on (anything in a re-shipment or refill that it did
not stamp as its own, and a ward offered back) its fresh windows to the
others skipped, so A is not on the hook for it: ``relayed`` names those
entries and their receiver owns them at once.  The mark is one bit of the
entry it rides in and is not priced separately.

**An ordered op is delivered by the log that ordered it.**  Its effects are
never stamped: the log feeds every replica the same slots.  A parcel's
``ordered`` stamp (absent before the first) is the last slot its sender
applied; a peer's *previous* report still above ``ordered_upto`` calls
``catch_up``: replay what the co-located log holds, then have it ``learn``
from that peer's.  That report is a full round older than the parcel that
displaced it and the ``decide`` it reflects older still, so the ``decide``
is lost, not in flight or reordered.  A replica that lost its state replays
from slot 0: rows only ordered ops touched are in nobody's change log.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Hashable, Iterable, Mapping, Optional

from repro.cluster.network import Message
from repro.cluster.node import DEFAULT_DOMAIN, Node
from repro.cluster.transport import digest_entries
from repro.cluster.watermark import RETRANSMIT_AFTER_ROUNDS, PeerSync
from repro.core.interpreter import SingleNodeInterpreter
from repro.core.program import HydroProgram
from repro.core.state import ChangeLog

#: ``network.metrics`` counters of the gossip ledger: stamps handed out
#: (take-overs included), and entries shipped for the first time, again after
#: a missing ack, and again because the peer lost its state; wards taken
#: over and wards released.  ``fresh <= logged x peers`` always, and a
#: fault-free run has ``takeover = retransmit = refill = 0``.
LOGGED_CHANGES = "replica.gossip.logged_changes"
FRESH_ENTRIES = "replica.gossip.fresh_entries"
RETRANSMIT_ENTRIES = "replica.gossip.retransmit_entries"
REFILL_ENTRIES = "replica.gossip.refill_entries"
TAKEOVER_ENTRIES = "replica.gossip.takeover_entries"
RELEASED_WARDS = "replica.gossip.released_wards"
#: Log slots fed to a replica outside the log's own apply call; 0 fault-free.
ORDERED_REPLAYED = "replica.ordered.replayed"
#: Sends to a mailbox outside the program (``SendEffect``s that left the
#: interpreter's outbox).  No deployment routes them anywhere; each call's
#: are drained and counted here so a replica's memory stays flat in run length.
EXTERNAL_SENDS = "replica.external_sends"

#: Reviews a ward may wait for its release before it is taken over.  The
#: peers' acks ride their next parcel to the origin and the origin's report
#: of them the one after, so the release arrives for the third review; two
#: would take every ward over just before that.
RELAY_AFTER_ROUNDS = 3
#: The keys of a parcel that are not stamps.
PARCEL_PAYLOAD = ("entries", "relayed")


def parcel_entries(parcel: Mapping[str, Any]) -> int:
    """What a gossip parcel costs on the wire, in entries: its rows and
    vars, plus however many stamps it carries at the density of digests."""
    return len(parcel["entries"]) + digest_entries(len(parcel) - len(PARCEL_PAYLOAD))


#: The key an :meth:`ReplicaNode.apply` result travels under, by status.
RESULT_KEY = {"ok": "value", "rejected": "detail"}


@dataclass(slots=True)
class _PeerSync(PeerSync):
    """The watermarks kept about one peer, its refill mark and its reports."""

    #: Stamps up to here were shipped before the peer lost its state.
    refill_upto: int = 0
    #: The peer's latest report about its own log: what all its peers but
    #: this replica confirmed, where it starts.
    delivered: int = 0
    floor: int = 0
    #: The last log slot the peer reported applying (``ordered``).
    ordered: int = -1


class ReplicaNode(Node):
    """A node hosting one replica of the program.

    ``peers`` is the whole replica group, fixed here: every replica of a
    group is built with the same list, and no replica's list changes later.
    """

    def __init__(self, node_id, simulator, network, program: HydroProgram,
                 domain=DEFAULT_DOMAIN, gossip_interval: Optional[float] = 10.0,
                 peers: Iterable[Hashable] = ()) -> None:
        super().__init__(node_id, simulator, network, domain)
        self.program = program
        self.gossip_interval = gossip_interval
        self.peers = [peer for peer in peers if peer != node_id]
        self._boot(first_stamp=0)
        self.on("invoke", self._on_invoke)
        self.on("gossip", self._on_gossip)
        #: ``catch_up(peer, slot)``: wired by a deployment that orders ops.
        self.catch_up = None
        self._arm_gossip()

    def _boot(self, first_stamp: int) -> None:
        """An empty interpreter, a log that goes on from ``first_stamp``, and
        no memory of any peer."""
        self.interpreter = SingleNodeInterpreter(self.program, node_id=self.node_id)
        self.change_log = ChangeLog(first_stamp)
        self.interpreter.state.change_log = self.change_log
        self.ordered_upto = -1
        self._sync: dict[Hashable, _PeerSync] = {
            peer: _PeerSync() for peer in self.peers}

    # -- request handling -----------------------------------------------------------

    def apply(self, handler: str, args: dict, log_effects: bool = True) -> tuple[str, Any]:
        """Run one invocation as its own tick: ``("ok", value)`` or
        ``("rejected", detail)``.  The tick's external sends are drained and
        counted under :data:`EXTERNAL_SENDS`, what it logged under
        :data:`LOGGED_CHANGES`."""
        interpreter, metrics = self.interpreter, self.network.metrics
        before = self.change_log.seq
        request = interpreter.call(handler, **args)
        outcome = interpreter.run_tick(log_effects)
        if interpreter.outbox:
            metrics.increment(EXTERNAL_SENDS, len(interpreter.drain_outbox()))
        metrics.increment(LOGGED_CHANGES, self.change_log.seq - before)
        if request in outcome.rejected:
            return "rejected", outcome.rejected[request]
        return "ok", outcome.responses.get(request)

    def _on_invoke(self, message: Message) -> None:
        """Apply a client operation locally and answer the proxy over RPC:
        ``{"status", RESULT_KEY[status]: result, "replica"}``."""
        payload = message.payload
        status, result = self.apply(payload["handler"], payload["args"])
        self.reply(message, "reply", {"status": status, RESULT_KEY[status]: result,
                                      "replica": self.node_id}, entries=1)

    def apply_ordered(self, slot: int, handler: str, args: dict):
        """Apply a consensus-log slot, unstamped.  Any slot but the next is
        ignored (``None``); a rejected op still consumes its slot."""
        if slot != self.ordered_upto + 1:
            return None
        self.ordered_upto = slot
        return self.apply(handler, args, log_effects=False)

    # -- anti-entropy -----------------------------------------------------------------

    def _arm_gossip(self) -> None:
        if self.gossip_interval:
            self.set_timer(self.gossip_interval, self._gossip_tick,
                           label=partial("gossip@{}".format, self.node_id))

    def _gossip_tick(self) -> None:
        self.push_gossip()
        self._arm_gossip()

    def push_gossip(self) -> None:
        """One round: settle who ships what, then one parcel per peer, sized
        by what it carries.

        An idle round still sends the stamps — they are the acknowledgement
        the peer, and the report its wards' holders, are waiting for.
        """
        self._review_wards()
        # What all peers but the receiver confirmed: the round's minimum, or
        # the runner-up for the peer that holds it; ``seq`` if there is none.
        low = runner_up = self.change_log.seq
        lowest = None
        for peer, sync in self._sync.items():
            if sync.confirmed < runner_up:
                if sync.confirmed < low:
                    low, runner_up, lowest = sync.confirmed, low, peer
                else:
                    runner_up = sync.confirmed
        for peer in self.peers:
            parcel = self._parcel_for(peer, self._sync[peer],
                                      runner_up if peer == lowest else low)
            self.queue(peer, "gossip", parcel, entries=parcel_entries(parcel))

    def _review_wards(self) -> None:
        """Release the origins that delivered; take over what one cannot."""
        log = self.change_log
        if not log.wards:
            return
        released = taken = 0
        for origin, wards in list(log.wards.items()):
            sync = self._sync[origin]
            for item, (tag, waited) in list(wards.items()):
                # Its log still holds what it tagged.
                liable = sync.floor < tag
                if liable and tag <= sync.delivered:
                    del wards[item]
                    released += 1
                elif liable and waited + 1 < RELAY_AFTER_ROUNDS:
                    wards[item] = (tag, waited + 1)
                else:
                    log.record(item)        # closes every ward on it
                    taken += 1
            if not wards:
                log.wards.pop(origin, None)
        metrics = self.network.metrics
        metrics.increment(RELEASED_WARDS, released)
        metrics.increment(TAKEOVER_ENTRIES, taken)
        metrics.increment(LOGGED_CHANGES, taken)

    def _parcel_for(self, peer: Hashable, sync: _PeerSync, delivered: int) -> dict:
        since = sync.due()
        # Filled in log order, so the payload is the same under every
        # PYTHONHASHSEED.
        log = self.change_log
        theirs, sources = log.wards.get(peer, ()), log.sources
        kinds: dict = {}
        relayed = []
        for item, stamp in log.since(since):
            source = sources.get(item)
            if stamp > sync.shipped:
                if source is not None and (sync.confirmed or source != peer
                                           and item not in theirs):
                    continue    # a ward: its origins ship it, or already have
                kinds[item] = FRESH_ENTRIES
            elif stamp <= sync.refill_upto:
                kinds[item] = REFILL_ENTRIES
            else:
                kinds[item] = RETRANSMIT_ENTRIES
            if source is not None:
                relayed.append(item)
        entries = self.interpreter.state.export(kinds)
        metrics = self.network.metrics
        for item in entries:
            metrics.increment(kinds[item])
        sync.shipped = log.seq
        parcel = {"entries": entries,
                  "relayed": [item for item in relayed if item in entries],
                  "since": since, "seq": log.seq, "seen": sync.seen,
                  "delivered": delivered}
        if log.floor:
            parcel["floor"] = log.floor
        if self.ordered_upto >= 0:
            parcel["ordered"] = self.ordered_upto
        return parcel

    def _on_gossip(self, message: Message) -> None:
        payload = message.payload
        peer = message.source
        sync = self._sync[peer]
        sync.on_window(payload["since"], payload["seq"])
        seen = payload["seen"]
        if seen < sync.confirmed:
            # The peer holds less than it did: it lost its state.  Next
            # round, ship it everything again (reporting 0, it is also
            # offered its own writes back).
            sync.refill_upto, sync.confirmed = sync.shipped, seen
            sync.overdue = RETRANSMIT_AFTER_ROUNDS
        else:
            sync.confirm(seen)
        sync.delivered = payload["delivered"]
        sync.floor = payload.get("floor", 0)
        stale, sync.ordered = sync.ordered, payload.get("ordered", -1)
        if stale > self.ordered_upto and self.catch_up is not None:
            self.catch_up(peer, stale)
        state, entries = self.interpreter.state, payload["entries"]
        before = self.change_log.seq
        # What the sender merely passes on is ours at once; the rest is its
        # ward.
        state.merge_entries({item: entries[item] for item in payload["relayed"]})
        state.merge_entries(entries, source=peer, tag=payload["seq"])
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
