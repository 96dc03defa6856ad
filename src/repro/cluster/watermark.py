"""The watermark core both replica kinds replicate by.

A change that enters the replica group at a replica is stamped in its
:class:`StampLog`; the replica ships each peer *windows* — the items stamped
in ``(since, seq]``, with their current values — and keeps a
:class:`PeerSync` per peer, a few integers whatever is in flight.  This is
the delta-interval anti-entropy of Almeida, Shoker and Baquero, *Delta State
Replicated Data Types* (JPDC 2018), as refined by Enes et al., *Efficient
Synchronization of State-based CRDTs* (ICDE 2019).  What one replica kind
adds stays with it (:mod:`repro.storage.kvs`,
:mod:`repro.availability.replication`); this module knows no node, network,
simulator or metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional

#: Rounds a peer may leave shipped changes unconfirmed, with no ack progress,
#: before they are shipped again from its confirmed stamp.  A KVS ack answers
#: its window at once, so two ticks cover a round trip of up to two gossip
#: intervals; a program replica's rides the peer's next parcel, so it is at
#: least one round behind.  Either way two keeps a fault-free run free of
#: retransmissions.
RETRANSMIT_AFTER_ROUNDS = 2

#: Windows a receiver remembers past a gap.  On overflow it forgets them all:
#: they are merged already, and the sender's go-back covers them again.
MAX_AHEAD_WINDOWS = 8


class StampLog:
    """Which items changed, in the order they did: ``stamps`` maps each to
    the stamp of its latest change, in stamp order, so "everything after
    stamp *n*" is a walk back from the tail that costs what changed."""

    def __init__(self, seq: int = 0) -> None:
        #: Stamp of the latest change.  A replica that loses its state starts
        #: its next log here, never back at 0, so a stamp its peers may have
        #: acknowledged is not handed out twice.
        self.seq = seq
        #: Where the numbering started: no change stamped at or below it is
        #: in this log (whatever a peer may remember of an earlier one).
        self.floor = seq
        self.stamps: dict[Hashable, int] = {}

    def stamp(self, item: Hashable) -> None:
        self.seq += 1
        stamps = self.stamps
        if item in stamps:
            del stamps[item]  # one stamp per item: changed again, it moves to the tail
        stamps[item] = self.seq

    def since(self, low: int, high: Optional[int] = None) -> list[tuple[Hashable, int]]:
        """``(item, stamp)`` of every change stamped in ``(low, high]`` — to
        the tail when ``high`` is None — oldest first."""
        if high is None:
            high = self.seq
        tail = []
        for item, stamp in reversed(self.stamps.items()):
            if stamp <= low:
                break
            if stamp <= high:
                tail.append((item, stamp))
        tail.reverse()
        return tail

    def trim(self, peers: Iterable[PeerSync]) -> None:
        """Forget what every peer confirmed: the log holds what is
        unacknowledged, not what is stored."""
        upto = min([peer.confirmed for peer in peers])
        stamps = self.stamps
        if upto >= self.seq:
            # ``clear`` also releases the table: a dict keeps the slots of
            # deleted keys until its next resize, and every walk of a log
            # drained key by key (a preload's, say) would cross them all.
            stamps.clear()
            return
        confirmed = []
        for item, stamp in stamps.items():
            if stamp > upto:
                break
            confirmed.append(item)
        for item in confirmed:
            del stamps[item]


@dataclass(slots=True)
class PeerSync:
    """What a replica keeps about one peer.  ``shipped``/``confirmed``/
    ``overdue`` are its sender side, ``seen``/``ahead`` its receiver side;
    all zero is "fully unsynced"."""

    #: Highest local stamp already shipped to the peer.
    shipped: int = 0
    #: Highest local stamp the peer acknowledged holding without a gap.
    confirmed: int = 0
    #: Consecutive rounds that found shipped changes unconfirmed.
    overdue: int = 0
    #: Highest of the peer's stamps held here without a gap.
    seen: int = 0
    #: Windows that arrived before a gap closed: ``since -> seq``.
    ahead: dict[int, int] = field(default_factory=dict)

    def due(self) -> int:
        """Where this round's window to the peer starts; call once a round."""
        if self.confirmed < self.shipped:
            self.overdue += 1
            if self.overdue >= RETRANSMIT_AFTER_ROUNDS:
                # The ack is overdue (lost window, lost ack, or a peer that
                # lost its state): go back to what the peer confirmed.
                self.overdue = 0
                return self.confirmed
        else:
            self.overdue = 0
        return self.shipped

    def confirm(self, seen: int) -> bool:
        """Take the peer's acknowledgement; True if it confirmed more."""
        if seen <= self.confirmed:
            return False
        self.confirmed, self.overdue = seen, 0
        return True

    def on_window(self, since: int, seq: int) -> None:
        """Note a window of the peer's stamps ``(since, seq]``, merged here.
        With ``since <= seen`` it advances ``seen`` to ``seq`` and absorbs
        whatever in ``ahead`` now connects; a later one waits in ``ahead``."""
        ahead = self.ahead
        if since <= self.seen:
            seen = max(self.seen, seq)
            while ahead and (first := min(ahead)) <= seen:
                seen = max(seen, ahead.pop(first))
            self.seen = seen
        else:
            if len(ahead) >= MAX_AHEAD_WINDOWS:
                ahead.clear()
            ahead[since] = max(seq, ahead.get(since, 0))
