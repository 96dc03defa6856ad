"""The watermark core against an abstract model of what each receiver holds.

One sender stamps writes in a :class:`StampLog` and ships two receivers
windows of it; a harness carries windows and acks in an in-flight list,
delivered in any order, dropped or duplicated.  It plays the rules the two
replica kinds add to the core, one kind per run: the KVS style names gaps
(``until``), trims the log at the minimum ``confirmed`` and resets the
*sender* (its entries lost, its numbering and every receiver's ``seen``
kept); the replica style reports ``seen`` every round, resets a *receiver*
(``seen`` back to 0) and refills a receiver whose confirmation fell.

After every step, every item whose latest stamp a receiver has seen is held
there at least at that version, ``confirmed <= shipped <= seq`` and ``seq``
never ran backwards.  A settle — faults stop, in-flight messages land in
order — leaves every window confirmed, the trimmed log empty, nothing
``ahead`` and every receiver holding every item's latest version within
``SETTLE_ROUNDS`` rounds.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.watermark import RETRANSMIT_AFTER_ROUNDS, PeerSync, StampLog

RECEIVERS = ("r1", "r2")
RECEIVER = st.sampled_from(RECEIVERS)
ITEM = st.sampled_from("abcd")
#: An index into the in-flight list, reduced modulo its length.
SLOT = st.integers(0, 15)
#: A go-back fires on the RETRANSMIT_AFTER_ROUNDS-th round without progress;
#: one round more delivers and confirms it, one more finds nothing overdue.
SETTLE_ROUNDS = RETRANSMIT_AFTER_ROUNDS + 2


class WatermarkMachine(RuleBasedStateMachine):

    @initialize(kvs_style=st.booleans())
    def build(self, kvs_style):
        self.kvs_style = kvs_style
        self.log = StampLog()
        self.senders = {r: PeerSync() for r in RECEIVERS}    # the sender's records
        self.views = {r: PeerSync() for r in RECEIVERS}      # each receiver's record
        self.held = {r: {} for r in RECEIVERS}               # item -> version held
        self.version = {}           # item -> the sender's latest version
        self.stamp_of = {}          # item -> the stamp of that version
        self.writes = 0
        self.in_flight = []
        self.top_seq = 0

    # -- the harness -----------------------------------------------------------

    def ship(self, receiver, since, until=None):
        sync = self.senders[receiver]
        seq = self.log.seq if until is None else until
        entries = {item: self.version[item] for item, _ in self.log.since(since, seq)}
        sync.shipped = max(sync.shipped, seq)
        self.in_flight.append(("window", receiver, since, seq, entries))

    def land(self, message):
        kind, receiver, *body = message
        if kind == "window":
            since, seq, entries = body
            held = self.held[receiver]
            for item, version in entries.items():
                held[item] = max(held.get(item, 0), version)
            view = self.views[receiver]
            view.on_window(since, seq)
            self.in_flight.append(("ack", receiver, view.seen, None))
            return
        seen, until = body
        sync = self.senders[receiver]
        if not self.kvs_style and seen < sync.confirmed:
            # The receiver lost its state: ship it everything again.
            sync.confirmed, sync.overdue = seen, RETRANSMIT_AFTER_ROUNDS
        elif sync.confirm(seen) and self.kvs_style:
            self.log.trim(self.senders.values())
        if until is not None:
            self.ship(receiver, seen, until)

    def land_all(self):
        while self.in_flight:
            self.land(self.in_flight.pop(0))

    # -- rules -----------------------------------------------------------------

    @rule(item=ITEM)
    def write(self, item):
        self.writes += 1
        self.version[item] = self.writes
        self.log.stamp(item)
        self.stamp_of[item] = self.log.seq

    @rule()
    def push(self):
        for receiver, sync in self.senders.items():
            if sync.shipped < self.log.seq:
                self.ship(receiver, sync.shipped)

    @rule()
    def round(self):
        for receiver, sync in self.senders.items():
            since = sync.due()
            if since < self.log.seq or not self.kvs_style:
                self.ship(receiver, since)
        for receiver, view in self.views.items():
            if not self.kvs_style:
                self.in_flight.append(("ack", receiver, view.seen, None))
            elif view.ahead:
                self.in_flight.append(("ack", receiver, view.seen, min(view.ahead)))

    @precondition(lambda self: self.in_flight)
    @rule(slot=SLOT)
    def deliver(self, slot):
        self.land(self.in_flight.pop(slot % len(self.in_flight)))

    @precondition(lambda self: self.in_flight)
    @rule(slot=SLOT)
    def drop(self, slot):
        self.in_flight.pop(slot % len(self.in_flight))

    @precondition(lambda self: self.in_flight)
    @rule(slot=SLOT)
    def duplicate(self, slot):
        self.in_flight.append(self.in_flight[slot % len(self.in_flight)])

    @precondition(lambda self: self.kvs_style)
    @rule()
    def reset_sender(self):
        self.log = StampLog(self.log.seq)
        for sync in self.senders.values():
            sync.confirmed = sync.shipped = self.log.seq
            sync.overdue = 0
        self.version, self.stamp_of = {}, {}

    @precondition(lambda self: not self.kvs_style)
    @rule(receiver=RECEIVER)
    def reset_receiver(self, receiver):
        self.held[receiver] = {}
        self.views[receiver] = PeerSync()

    @rule()
    def settle(self):
        self.land_all()
        for _ in range(SETTLE_ROUNDS):
            self.round()
            self.land_all()
        for receiver, sync in self.senders.items():
            assert sync.confirmed == sync.shipped == self.log.seq, (receiver, sync)
            assert self.views[receiver].ahead == {}, receiver
            held = self.held[receiver]
            assert all(held.get(item, 0) >= version
                       for item, version in self.version.items()), receiver
        if self.kvs_style:
            assert self.log.stamps == {}

    # -- invariants ------------------------------------------------------------

    @invariant()
    def a_seen_stamp_is_held(self):
        for receiver, view in self.views.items():
            held = self.held[receiver]
            for item, stamp in self.stamp_of.items():
                if stamp <= view.seen:
                    assert held.get(item, 0) >= self.version[item], (receiver, item)

    @invariant()
    def watermarks_are_ordered(self):
        for sync in self.senders.values():
            assert sync.confirmed <= sync.shipped <= self.log.seq, sync

    @invariant()
    def seq_never_runs_backwards(self):
        assert self.log.seq >= self.top_seq
        self.top_seq = self.log.seq


WatermarkMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None)
TestWatermarkMachine = WatermarkMachine.TestCase
