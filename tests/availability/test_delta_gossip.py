"""Delta gossip between program replicas: convergence, and what it may ship.

The oracle is the protocol this one replaced: joining whole replica states
with ``ProgramState.merge_from``.  Every cluster here runs with the
transport's payload sanitizer armed, so a payload (or a lattice value it
shares with a live row) mutated after queueing fails the run.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.apps.covid import build_covid_program
from repro.availability import ReplicaNode
from repro.availability.replication import (
    FRESH_ENTRIES,
    LOGGED_CHANGES,
    REFILL_ENTRIES,
    RELAY_AFTER_ROUNDS,
    RELEASED_WARDS,
    RETRANSMIT_ENTRIES,
    TAKEOVER_ENTRIES,
    parcel_entries,
)
from repro.cluster import (
    DelayMatrix,
    Message,
    Network,
    NetworkConfig,
    Simulator,
    TransportConfig,
)
from repro.core.state import ProgramState

ROUND = 10.0
#: Rounds a healed cluster gets to converge: a lost ack is noticed after two,
#: the re-shipment lands in the third, what it taught is forwarded in the
#: fourth and confirmed in the fifth; a replica that lost its state adds the
#: round in which it first reports 0.  A ward waits no longer than a lost
#: ack does (``RELAY_AFTER_ROUNDS`` reviews, then it is shipped and confirmed
#: like any change), so the take-over path fits the same budget.
CONVERGE_ROUNDS = 8


class Cluster:
    """``count`` replicas of the COVID tracker, every gossip parcel recorded."""

    def __init__(self, count=3, seed=3, vaccines=2):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim, NetworkConfig(base_delay=1.0, jitter=0.5),
                           transport=TransportConfig(sanitize=True))
        self.program = build_covid_program(vaccine_count=vaccines)
        ids = [f"r{index}" for index in range(count)]
        self.replicas = [
            ReplicaNode(rid, self.sim, self.net, self.program, domain=f"az-{index}",
                        gossip_interval=ROUND, peers=ids)
            for index, rid in enumerate(ids)]
        #: (time, sender, destination, payload, declared entries)
        self.parcels = []
        for replica in self.replicas:
            self._record_gossip(replica)

    def _record_gossip(self, replica):
        queue = replica.queue

        def recording(destination, mailbox, payload, entries=0):
            if mailbox == "gossip":
                self.parcels.append((self.sim.now, replica.node_id, destination,
                                     payload, entries))
            queue(destination, mailbox, payload, entries)

        replica.queue = recording

    def run(self, rounds):
        self.sim.run(until=self.sim.now + rounds * ROUND)

    def counter(self, name):
        return self.net.metrics.counter(name)

    def states(self):
        return [replica.interpreter.state for replica in self.replicas]

    def join(self):
        """The from-scratch join of every replica's state."""
        joined = ProgramState(self.program.datamodel)
        for state in self.states():
            joined.merge_from(state)
        return joined

    def assert_ledger(self):
        peers = len(self.replicas) - 1
        assert self.counter(TAKEOVER_ENTRIES) <= self.counter(LOGGED_CHANGES)
        assert self.counter(FRESH_ENTRIES) <= self.counter(LOGGED_CHANGES) * peers
        shipped = sum(len(payload["entries"]) for _, _, _, payload, _ in self.parcels)
        assert shipped == (self.counter(FRESH_ENTRIES) + self.counter(RETRANSMIT_ENTRIES)
                           + self.counter(REFILL_ENTRIES))
        assert all(entries == parcel_entries(payload)
                   for _, _, _, payload, entries in self.parcels)


def monotone(state):
    """``{table: {key: lattice fields}}`` — what replicas must agree on
    (plain fields and vars may legitimately differ between replicas)."""
    return {name: {key: tuple(row[field] for field in table.entity.lattice_fields)
                   for key, row in table.rows.items()}
            for name, table in state.tables.items()}


def dominates(larger, smaller):
    return all(key in larger[name]
               and all(mine.leq(theirs) for mine, theirs in zip(fields, larger[name][key]))
               for name, rows in smaller.items() for key, fields in rows.items())


def entry_keys(parcels):
    return [(sender, destination, list(payload["entries"]))
            for _, sender, destination, payload, _ in parcels]


def carrying(parcels):
    """The parcels that ship at least one entry, as ``entry_keys``."""
    return [sent for sent in entry_keys(parcels) if sent[2]]


# -- (a) convergence to the merge_from oracle under generated faults ----------------------

REPLICA = st.integers(0, 5)
PID = st.integers(0, 5)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("add_person"), REPLICA, PID),
    st.tuples(st.just("add_contact"), REPLICA, PID, PID),
    st.tuples(st.just("add_contact"), REPLICA, PID, PID),
    st.tuples(st.just("vaccinate"), REPLICA, PID),
    st.tuples(st.just("run"), st.integers(1, 9)),
    st.tuples(st.just("run"), st.sampled_from([10, 25, 40])),      # whole rounds
    st.tuples(st.just("drops"), st.sampled_from([0.0, 0.3, 0.7])),
    st.tuples(st.just("partition"), REPLICA),
    # One link, both ways or one: the origin of a change is alive but cannot
    # reach one peer (or hear it) — no whole-node partition produces that.
    st.tuples(st.just("cut"), REPLICA, REPLICA, st.booleans()),
    st.tuples(st.just("heal")),
    st.tuples(st.just("crash"), REPLICA),
    st.tuples(st.just("recover"), REPLICA, st.booleans()),
), max_size=60)

ARGS = {"add_person": lambda pid: {"pid": pid, "country": "US"},
        "add_contact": lambda id1, id2: {"id1": id1, "id2": id2},
        "vaccinate": lambda pid: {"pid": pid}}


def play(cluster, steps):
    """Run a generated schedule; returns the statuses of the applied ops."""
    statuses = []
    for kind, *args in steps:
        if kind == "run":
            cluster.sim.run(until=cluster.sim.now + args[0])
        elif kind == "drops":
            cluster.net.config.drop_rate = args[0]
        elif kind == "heal":
            cluster.net.heal_all()
        else:
            replica = cluster.replicas[args[0] % len(cluster.replicas)]
            if kind == "partition":
                cluster.net.partition(
                    [replica.node_id],
                    [other.node_id for other in cluster.replicas if other is not replica])
            elif kind == "cut":
                other = cluster.replicas[args[1] % len(cluster.replicas)]
                cluster.net.partition([replica.node_id], [other.node_id], oneway=args[2])
            elif kind == "crash":
                replica.crash()
            elif kind == "recover":
                replica.recover(lose_state=args[1])
            elif replica.alive:
                statuses.append(replica.apply(kind, ARGS[kind](*args[1:]))[0])
    return statuses


def heal_and_check_convergence(cluster, lose_at_heal):
    """Heal every fault, then hold the cluster to the ``merge_from`` oracle."""
    count = len(cluster.replicas)
    cluster.net.config.drop_rate = 0.0
    cluster.net.heal_all()
    for replica in cluster.replicas:
        if not replica.alive:
            replica.recover(lose_state=lose_at_heal)
    held_at_heal = monotone(cluster.join())
    cluster.run(CONVERGE_ROUNDS)

    joined = monotone(cluster.join())
    assert [monotone(state) for state in cluster.states()] == [joined] * count
    assert dominates(joined, held_at_heal)      # nothing a live replica held was lost
    cluster.assert_ledger()
    # Converged and confirmed: the next rounds carry stamps only.
    settled = len(cluster.parcels)
    cluster.run(2)
    assert len(cluster.parcels) == settled + 2 * count * (count - 1)
    assert all(not payload["entries"] for _, _, _, payload, _ in cluster.parcels[settled:])
    assert not any(replica.change_log.wards for replica in cluster.replicas)


#: Schedules the widened property found on the way to the ward rules.  (i)
#: The rebooted r2 sends an empty window over its old numbering, r0 confirms
#: it, and r2 would vouch to r1 — the only holder — that r0 has the row.
#: (ii) r0 is acknowledged a write, ships it and loses its state before it
#: has confirmed anything: nobody's confirmation can fall to reveal the loss.
TRAP_EMPTY_WINDOW = [("run", 2), ("crash", 0), ("add_person", 2, 1), ("run", 10),
                     ("recover", 2, True)]
TRAP_OWN_WRITE = [("run", 9), ("add_person", 0, 1), ("run", 1), ("crash", 0)]


@given(st.integers(3, 6), st.integers(0, 50), STEPS, st.booleans())
@example(3, 3, TRAP_EMPTY_WINDOW, False)
@example(3, 3, TRAP_EMPTY_WINDOW, True)
@example(3, 3, TRAP_OWN_WRITE, True)
@settings(max_examples=400, deadline=None)
def test_replicas_converge_to_the_join_of_their_states(count, seed, steps, lose_at_heal):
    cluster = Cluster(count, seed=seed)
    play(cluster, steps)
    heal_and_check_convergence(cluster, lose_at_heal)


# -- (b) a fault-free run ships each change to each peer exactly once ----------------------


def scripted_writes(cluster):
    """Writes at every replica, one batch per round; returns the statuses."""
    statuses = []
    for pid in range(9):
        replica = cluster.replicas[pid % 3]
        statuses.append(replica.apply("add_person", {"pid": pid, "country": "DE"})[0])
        statuses.append(cluster.replicas[(pid + 1) % 3].apply(
            "add_contact", {"id1": pid, "id2": max(0, pid - 1)})[0])
        statuses.append(replica.apply("vaccinate", {"pid": pid})[0])
        cluster.run(1)
    return statuses


def test_fault_free_run_ships_nothing_twice():
    cluster = Cluster(3, vaccines=2)
    statuses = scripted_writes(cluster)
    assert statuses.count("rejected") == 3          # each replica ran out after two
    cluster.run(3)

    sent = [(sender, destination, item, repr(value))
            for _, sender, destination, payload, _ in cluster.parcels
            for item, value in payload["entries"].items()]
    assert len(sent) == len(set(sent))
    assert cluster.counter(TAKEOVER_ENTRIES) == 0
    assert cluster.counter(RETRANSMIT_ENTRIES) == 0
    assert cluster.counter(REFILL_ENTRIES) == 0
    assert cluster.counter(FRESH_ENTRIES) == len(sent) > 0
    assert cluster.counter(RELEASED_WARDS) > 0
    cluster.assert_ledger()
    joined = monotone(cluster.join())
    assert [monotone(state) for state in cluster.states()] == [joined] * 3
    assert len(joined["people"]) == 9


def test_an_entry_is_not_offered_back_to_the_peer_it_came_from():
    cluster = Cluster(3)
    cluster.replicas[0].apply("add_person", {"pid": 1, "country": "IN"})
    cluster.run(4)
    # First contact: nobody has confirmed anything yet, so r1 and r2 cannot
    # tell an r0 that still holds its write from one that lost it, and offer
    # the row back.  Neither tells the other: r0 is on the hook for that.
    assert sorted(carrying(cluster.parcels)) == [
        (sender, destination, [("people", 1)])
        for sender, destination in [("r0", "r1"), ("r0", "r2"), ("r1", "r0"), ("r2", "r0")]]

    # From then on a change is sent by its origin only.
    settled = len(cluster.parcels)
    cluster.replicas[0].apply("add_person", {"pid": 2, "country": "IN"})
    cluster.run(4)
    assert carrying(cluster.parcels[settled:]) == [
        ("r0", "r1", [("people", 2)]), ("r0", "r2", [("people", 2)])]
    assert cluster.counter(RELEASED_WARDS) == 4
    assert cluster.counter(TAKEOVER_ENTRIES) == 0


def test_rejected_request_ships_nothing_and_idle_rounds_carry_only_stamps():
    cluster = Cluster(3, vaccines=0)
    cluster.replicas[0].apply("add_person", {"pid": 1, "country": "BR"})
    cluster.run(4)
    settled, logged = len(cluster.parcels), cluster.counter(LOGGED_CHANGES)
    sent = cluster.net.bytes_sent

    assert cluster.replicas[0].apply("vaccinate", {"pid": 1})[0] == "rejected"
    cluster.run(3)

    idle = cluster.parcels[settled:]
    assert len(idle) == 3 * 3 * 2
    assert all(payload["entries"] == {} and entries == 1
               for _, _, _, payload, entries in idle)
    assert cluster.counter(LOGGED_CHANGES) == logged
    # On the wire: one envelope header and one entry's worth of stamps each.
    assert cluster.net.bytes_sent - sent == len(idle) * (24 + 96)
    assert not cluster.replicas[1].interpreter.state.table("people").get(1)["vaccinated"].value


# -- (c) a replica that lost its state is refilled once per peer ---------------------------


def test_lost_state_is_refilled_once_per_peer_including_the_victims_own_writes():
    cluster = Cluster(3)
    victim, *peers = cluster.replicas
    for pid in range(6):
        cluster.replicas[pid % 3].apply("add_person", {"pid": pid, "country": "US"})
    victim.apply("add_contact", {"id1": 0, "id2": 3})       # pids 0 and 3 are the victim's
    cluster.run(4)
    assert cluster.counter(REFILL_ENTRIES) == 0
    lost = len(victim.change_log.since(0))
    assert lost == 6                                       # one stamp per row it holds

    victim.crash()
    cluster.run(1)
    victim.recover(lose_state=True)
    assert victim.interpreter.state.table("people").rows == {}
    recovered_at = len(cluster.parcels)
    peers[0].apply("add_person", {"pid": 6, "country": "US"})
    peers[1].apply("add_contact", {"id1": 1, "id2": 2})
    changed_since = 1 + 2
    cluster.run(CONVERGE_ROUNDS)

    joined = monotone(cluster.join())
    assert [monotone(state) for state in cluster.states()] == [joined] * 3
    assert set(joined["people"]) == set(range(7))
    assert 3 in joined["people"][0][0]                      # the victim's own write is back
    for peer in peers:
        to_victim = [payload for _, sender, destination, payload, _
                     in cluster.parcels[recovered_at:]
                     if sender == peer.node_id and destination == victim.node_id]
        refills = [payload for payload in to_victim
                   if payload["since"] == 0 and payload["entries"]]
        assert len(refills) == 1                           # once, not every round
        assert {("people", 0), ("people", 3)} <= set(refills[0]["entries"])
        assert sum(len(payload["entries"]) for payload in to_victim) <= lost + changed_since
    assert 0 < cluster.counter(REFILL_ENTRIES) <= 2 * lost
    assert cluster.counter(RETRANSMIT_ENTRIES) == 0
    # What a refill merely passes on — the victim's old writes among it — is
    # the victim's own again at once: it ships it, because nobody else will.
    reshipped = {item for _, sender, _, payload, _ in cluster.parcels[recovered_at:]
                 if sender == victim.node_id for item in payload["entries"]}
    assert {("people", 0), ("people", 3)} <= reshipped
    cluster.assert_ledger()


def test_recovery_with_state_kept_only_retransmits_the_gap():
    cluster = Cluster(3)
    sleeper, *peers = cluster.replicas
    for pid in range(4):
        cluster.replicas[pid % 3].apply("add_person", {"pid": pid, "country": "US"})
    cluster.run(4)
    sleeper.crash()
    crashed_at = len(cluster.parcels)
    peers[0].apply("add_person", {"pid": 7, "country": "DE"})
    cluster.run(3)
    sleeper.recover(lose_state=False)
    cluster.run(CONVERGE_ROUNDS)

    joined = monotone(cluster.join())
    assert [monotone(state) for state in cluster.states()] == [joined] * 3
    assert cluster.counter(REFILL_ENTRIES) == 0
    # Only the row written while it slept is sent to it, again and again
    # until it is back to confirm it.
    resent = {item for _, _, destination, payload, _ in cluster.parcels[crashed_at:]
              if destination == sleeper.node_id for item in payload["entries"]}
    assert resent == {("people", 7)}
    assert cluster.counter(RETRANSMIT_ENTRIES) > 0


def test_parcels_delivered_out_of_order_cost_no_go_back():
    """The later parcel waits in ``ahead``; the earlier one, arriving late,
    connects it, and ``seen`` reaches both without a re-shipment."""
    cluster = Cluster(2)
    r0, r1 = cluster.replicas
    for pid in (1, 2):
        r0.apply("add_person", {"pid": pid, "country": "US"})
        r0.push_gossip()
    first, second = [payload for _, _, _, payload, _ in cluster.parcels]
    assert [(p["since"], p["seq"]) for p in (first, second)] == [(0, 1), (1, 2)]
    sync = r1._sync["r0"]

    def deliver(payload):
        r1._on_gossip(Message(source="r0", destination="r1", mailbox="gossip",
                              payload=payload, sent_at=cluster.sim.now, message_id=0))

    deliver(second)
    assert (sync.seen, sync.ahead) == (0, {1: 2})
    deliver(first)
    assert (sync.seen, sync.ahead) == (2, {})
    assert people(r1) == {1, 2}


# -- (d) who is on the hook for a change: release, take-over, floor, hand-me-downs ----------


def people(replica):
    return set(replica.interpreter.state.table("people").rows)


def warmed(count=3):
    """A cluster past first contact: everyone has confirmed something to everyone."""
    cluster = Cluster(count)
    for index, replica in enumerate(cluster.replicas):
        replica.apply("add_person", {"pid": 100 + index, "country": "US"})
    cluster.run(4)
    assert all(sync.confirmed for replica in cluster.replicas
               for sync in replica._sync.values())
    assert not any(replica.change_log.wards for replica in cluster.replicas)
    return cluster


def test_a_third_replica_takes_over_a_change_its_origin_cannot_deliver():
    cluster = warmed()
    r0, r1, r2 = cluster.replicas
    cluster.net.partition(["r0"], ["r2"], oneway=True)      # r0 is alive, and hears r2
    cut_at = len(cluster.parcels)
    r0.apply("add_person", {"pid": 2, "country": "IN"})
    cluster.run(1)                                          # r0 ships it; only r1 gets it
    cluster.run(RELAY_AFTER_ROUNDS - 1)
    assert r1.change_log.wards == {"r0": {("people", 2): (r0.change_log.seq,
                                                          RELAY_AFTER_ROUNDS - 1)}}
    assert cluster.counter(TAKEOVER_ENTRIES) == 0 and 2 not in people(r2)

    cluster.run(2)                                          # RELAY_AFTER_ROUNDS + 1 in all
    assert 2 in people(r2)
    assert cluster.counter(TAKEOVER_ENTRIES) == 1 and not r1.change_log.wards
    cluster.run(4)
    # Shipped once, to every peer, as r1's own change — and acknowledged.
    assert [sent for sent in carrying(cluster.parcels[cut_at:]) if sent[0] == "r1"] == [
        ("r1", "r0", [("people", 2)]), ("r1", "r2", [("people", 2)])]
    heal_and_check_convergence(cluster, lose_at_heal=False)
    assert cluster.counter(TAKEOVER_ENTRIES) == 1


def test_wards_of_an_origin_that_lost_its_state_are_taken_over_at_once():
    cluster = warmed()
    r0, r1, r2 = cluster.replicas
    r0.apply("add_person", {"pid": 2, "country": "IN"})
    cluster.run(1)
    cluster.sim.run(until=cluster.sim.now + 2)              # r1 and r2 hold it, as r0's wards
    tag = r0.change_log.seq
    assert r1.change_log.wards == r2.change_log.wards == {"r0": {("people", 2): (tag, 0)}}
    r0.crash()                                              # rebooted in place
    r0.recover(lose_state=True)
    assert r0.change_log.floor == tag and people(r0) == set()

    # Review 1 comes before r0's next parcel; review 2 has read its floor.
    # (Waiting for review RELAY_AFTER_ROUNDS would be the origin-is-slow rule.)
    cluster.run(2)
    assert cluster.counter(TAKEOVER_ENTRIES) == 2
    assert not r1.change_log.wards and not r2.change_log.wards
    cluster.run(1)
    assert 2 in people(r0)
    heal_and_check_convergence(cluster, lose_at_heal=False)


def test_a_rebooted_origin_cannot_vouch_for_what_it_lost():
    """The floor rule as a safety rule: without it, the row stays on r1 for good."""
    cluster = Cluster(3)
    r0, r1, r2 = cluster.replicas
    cluster.sim.run(until=2)
    r0.crash()
    r2.apply("add_person", {"pid": 1, "country": "IN"})
    cluster.sim.run(until=12)                               # shipped at 10; r0 was down
    assert r1.change_log.wards == {"r2": {("people", 1): (1, 0)}}
    # r1 sleeps through its reviews (state kept) and cannot reach r2; r2
    # forgets the row, r0 is back and confirms r2's empty window over (0, 1].
    r1.crash()
    cluster.net.partition(["r1"], ["r2"], oneway=True)
    r2.crash()
    r2.recover(lose_state=True)
    r0.recover()
    cluster.sim.run(until=35)
    r1.recover()
    # r2's tick, re-armed at its reboot, lands its next parcel by 44:
    cluster.sim.run(until=44)                               # r2: "r0 confirmed 1", floor 1
    assert r1._sync["r2"].delivered == 1 == r1._sync["r2"].floor
    r2.crash()                                              # and is gone for good

    cluster.run(2)
    assert people(r0) == people(r1) == {1}
    assert cluster.counter(RELEASED_WARDS) == 0 and cluster.counter(TAKEOVER_ENTRIES) >= 1


def test_an_acknowledged_write_returns_to_a_lone_peer_that_lost_it_at_first_contact():
    """The offer-back at ``confirmed == 0``: with one peer there is nobody
    else to wait for, so the ward is released before r0 has confirmed
    anything — and a report of 0 cannot fall."""
    cluster = Cluster(2)
    play(cluster, TRAP_OWN_WRITE)
    heal_and_check_convergence(cluster, lose_at_heal=True)
    assert all(people(replica) == {1} for replica in cluster.replicas)
    assert cluster.counter(REFILL_ENTRIES) == 0 == cluster.counter(TAKEOVER_ENTRIES)


# -- (e) shared wards: a join of two owners' concurrent changes ships with its owners ------

ROW = ("people", 100)


def concurrent_changes(cluster):
    """r0 and r1 change row 100 inside one round, one field each; returns
    the tags their parcels will carry."""
    r0, r1 = cluster.replicas[:2]
    r0.apply("diagnosed", {"pid": 100})
    r1.apply("add_contact", {"id1": 100, "id2": 100})
    return r0.change_log.seq, r1.change_log.seq


def joined_row(replica):
    row = replica.interpreter.state.table("people").get(100)
    return row["covid"].value and 100 in row["contacts"]


def test_a_join_of_concurrent_changes_is_shipped_by_their_owners_only():
    cluster = warmed(4)
    r0, r1, r2, r3 = cluster.replicas
    settled, fresh = len(cluster.parcels), cluster.counter(FRESH_ENTRIES)
    tag0, tag1 = concurrent_changes(cluster)
    cluster.run(1)
    cluster.sim.run(until=cluster.sim.now + 2)
    # Each holder joined both parts and stamped nothing: every part has an
    # owner already, the origin that changed it.
    assert r2.change_log.wards == r3.change_log.wards == {"r0": {ROW: (tag0, 0)},
                                                          "r1": {ROW: (tag1, 0)}}
    assert r0.change_log.wards == {"r1": {ROW: (tag1, 0)}}
    assert r1.change_log.wards == {"r0": {ROW: (tag0, 0)}}
    assert all(joined_row(replica) for replica in cluster.replicas)

    cluster.run(4)
    assert sorted(carrying(cluster.parcels[settled:])) == [
        (owner, peer, [ROW]) for owner in ("r0", "r1")
        for peer in ("r0", "r1", "r2", "r3") if peer != owner]
    assert cluster.counter(FRESH_ENTRIES) - fresh == 2 * 3
    assert cluster.counter(TAKEOVER_ENTRIES) == 0
    assert not any(replica.change_log.wards for replica in cluster.replicas)
    cluster.assert_ledger()


def test_a_shared_ward_is_taken_over_when_one_origin_cannot_deliver_its_part():
    cluster = warmed(4)
    r0, r1, r2, r3 = cluster.replicas
    cluster.net.partition(["r1"], ["r3"], oneway=True)      # r1 is alive, and hears r3
    tag0, tag1 = concurrent_changes(cluster)
    cluster.run(1)
    cluster.run(RELAY_AFTER_ROUNDS - 1)
    assert r2.change_log.wards == {"r0": {ROW: (tag0, RELAY_AFTER_ROUNDS - 1)},
                                   "r1": {ROW: (tag1, RELAY_AFTER_ROUNDS - 1)}}
    assert not joined_row(r3) and cluster.counter(TAKEOVER_ENTRIES) == 0

    # Review RELAY_AFTER_ROUNDS: r0's part is released, r1's taken over —
    # by r2, and by r0, whose own change r1's part joined.
    cluster.run(1)
    assert cluster.counter(TAKEOVER_ENTRIES) == 2
    assert not r0.change_log.wards and not r2.change_log.wards
    cluster.run(1)
    assert joined_row(r3)
    heal_and_check_convergence(cluster, lose_at_heal=False)


def test_a_shared_ward_is_taken_over_at_once_when_one_origin_lost_its_state():
    cluster = warmed(4)
    r0, r1, r2, r3 = cluster.replicas
    concurrent_changes(cluster)
    cluster.run(1)
    cluster.sim.run(until=cluster.sim.now + 2)
    assert r2.change_log.wards.keys() == {"r0", "r1"}
    r1.crash()                                              # rebooted in place
    r1.recover(lose_state=True)

    # Review 1 comes before r1's next parcel; review 2 has read its floor
    # and takes the item over at r0, r2 and r3 — before r0's part is due.
    cluster.run(2)
    assert cluster.counter(TAKEOVER_ENTRIES) == 3
    assert not any(replica.change_log.wards for replica in (r0, r2, r3))
    cluster.run(1)
    assert joined_row(r1)
    heal_and_check_convergence(cluster, lose_at_heal=False)


def test_a_shared_ward_closes_only_once_each_origin_has_delivered():
    """r1's parcels reach r2 a round late, so r2 hears r0's report first."""
    cluster = warmed(4)
    r0, r1, r2, r3 = cluster.replicas
    cluster.sim.run(until=cluster.sim.now + ROUND / 2)      # nothing in flight
    late = cluster.net.config.delay_matrix = DelayMatrix()
    late.set_link("az-1", "az-2", delay=ROUND + 2, symmetric=False)
    tag0, tag1 = concurrent_changes(cluster)
    cluster.run(2)                                          # r1's part lands after review 1
    assert r2.change_log.wards == {"r0": {ROW: (tag0, 1)}, "r1": {ROW: (tag1, 0)}}
    cluster.run(RELAY_AFTER_ROUNDS - 1)                     # r0's report is in, r1's is not
    assert r2.change_log.wards == {"r1": {ROW: (tag1, RELAY_AFTER_ROUNDS - 1)}}
    cluster.run(1)                                          # and now r1's
    assert not r2.change_log.wards
    # Released, not taken over: r2's stamp is still the adoption from r0.
    # (r2's own acks of r1's part were late too, so r0 and r3 took it over.)
    assert r2.change_log.sources[ROW] == "r0"


# -- (f) the logical-message trace does not depend on PYTHONHASHSEED -----------------------


def faulty_trace():
    cluster = Cluster(4, seed=11)
    play(cluster, [
        ("add_person", 0, 1), ("add_person", 1, 2), ("add_contact", 2, 1, 2), ("run", 12),
        ("drops", 0.3), ("add_contact", 3, 2, 4), ("vaccinate", 1, 2), ("run", 25),
        ("partition", 2), ("add_person", 2, 5), ("add_contact", 0, 5, 1), ("run", 25),
        ("crash", 1), ("run", 8), ("recover", 1, True), ("add_person", 1, 3),
        ("heal",), ("drops", 0.0), ("run", 60),
    ])
    return [("gossip", destination, keys)
            for _, destination, keys in entry_keys(cluster.parcels)]


def test_trace_is_identical_under_two_hash_seeds():
    root = Path(__file__).resolve().parents[2]
    script = ("from availability.test_delta_gossip import faulty_trace\n"
              "print(faulty_trace())\n")
    outputs = []
    for seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("('people', 5)") > 1        # the faults really bit


# -- (g) recovery and the one apply entry point -------------------------------------------


def test_recovered_replica_gossips_again():
    cluster = Cluster(3)
    victim = cluster.replicas[0]
    cluster.sim.run(until=25.0)
    victim.crash()
    cluster.sim.run(until=40.0)
    victim.recover(lose_state=True)
    victim.apply("add_person", {"pid": 9, "country": "IN"})
    before = victim.transport.mailbox_stats["gossip"]["messages"]
    cluster.sim.run(until=200.0)

    assert victim.transport.mailbox_stats["gossip"]["messages"] - before == 16 * 2
    for replica in cluster.replicas:
        assert 9 in replica.interpreter.state.table("people")


def test_the_group_stays_as_built_through_a_crash_and_state_loss():
    cluster = Cluster(3)
    victim = cluster.replicas[0]
    victim.apply("add_person", {"pid": 1, "country": "US"})
    cluster.run(2)
    victim.crash()
    cluster.run(1)
    victim.recover(lose_state=True)
    start = len(cluster.parcels)
    cluster.run(CONVERGE_ROUNDS)

    for replica in cluster.replicas:
        others = [other.node_id for other in cluster.replicas if other is not replica]
        assert replica.peers == others and list(replica._sync) == others
    assert sorted({(sender, destination)
                   for _, sender, destination, _, _ in cluster.parcels[start:]}) == [
        ("r0", "r1"), ("r0", "r2"), ("r1", "r0"), ("r1", "r2"), ("r2", "r0"), ("r2", "r1")]
    assert all(people(replica) == {1} for replica in cluster.replicas)
    cluster.assert_ledger()


def test_every_entry_point_goes_through_apply():
    cluster = Cluster(3, vaccines=1)
    replica = cluster.replicas[0]
    assert replica.apply("add_person", {"pid": 1, "country": "US"}) == ("ok", "OK")
    assert replica.apply("vaccinate", {"pid": 1}) == ("ok", "OK")
    status, detail = replica.apply("vaccinate", {"pid": 1})
    assert status == "rejected" and "vaccine_count_non_negative" in detail

    calls = []
    apply = replica.apply
    replica.apply = lambda handler, args, **how: (calls.append((handler, how))
                                                  or apply(handler, args, **how))
    logged = replica.change_log.seq
    assert replica.apply_ordered(0, "add_person", {"pid": 2}) == ("ok", "OK")
    assert replica.apply_ordered(0, "add_person", {"pid": 3}) is None       # applied already
    assert replica.apply_ordered(2, "add_person", {"pid": 3}) is None       # not the next one
    assert replica.apply_ordered(1, "vaccinate", {"pid": 2})[0] == "rejected"
    assert replica.ordered_upto == 1                    # a rejected op consumed its slot
    assert replica.change_log.seq == logged             # and an ordered op stamps nothing
    cluster.replicas[1].queue(replica.node_id, "invoke",
                              {"handler": "trace", "args": {"pid": 1}},
                              entries=1)
    cluster.run(1)
    assert calls == [("add_person", {"log_effects": False}),
                     ("vaccinate", {"log_effects": False}), ("trace", {})]
    assert set(replica.interpreter.state.table("people").rows) == {1, 2}
    assert replica.handler_for("ordered") is None       # the log is the only way in
    replica.crash()
    replica.recover(lose_state=True)
    assert replica.ordered_upto == -1                   # volatile: a replay starts at slot 0


def idle_parcel_bytes(cluster):
    """What one settled round costs per parcel on the wire."""
    cluster.run(4)
    sent, parcels = cluster.net.bytes_sent, len(cluster.parcels)
    cluster.run(1)
    count = len(cluster.replicas)
    assert len(cluster.parcels) - parcels == count * (count - 1)
    assert all(not payload["entries"] for _, _, _, payload, _ in cluster.parcels[parcels:])
    return (cluster.net.bytes_sent - sent) / (count * (count - 1))


def round_stamps(cluster):
    """One more round's parcels: ``{sender: {(stamps carried, entries declared)}}``."""
    start = len(cluster.parcels)
    cluster.run(1)
    carried = {}
    for _, sender, _, payload, entries in cluster.parcels[start:]:
        stamps = tuple(sorted(set(payload) - {"entries", "relayed"}))
        carried.setdefault(sender, set()).add((stamps, entries))
    return carried


STAMPS = ("delivered", "seen", "seq", "since")


def test_the_ordered_stamp_is_priced_with_the_others_and_absent_until_there_is_one():
    """Four stamps, and ``ordered`` once there is one: five stamps of 16 B
    fit one 96 B entry, whatever the replica count."""
    clusters = [Cluster(count) for count in (3, 6, 10)]
    for cluster in clusters:
        assert idle_parcel_bytes(cluster) == 24 + 96
        assert not any("ordered" in payload or "floor" in payload
                       for _, _, _, payload, _ in cluster.parcels)
        for replica in cluster.replicas:
            replica.apply_ordered(0, "add_person", {"pid": 1})
        assert idle_parcel_bytes(cluster) == 24 + 96
        assert all(payload["ordered"] == 0 for _, _, _, payload, _ in cluster.parcels[-3:])
        cluster.assert_ledger()

    # A rebooted replica's log goes on from its old numbering and its parcels
    # say where (``floor``, absent while 0): a fifth stamp, and with
    # ``ordered`` back a sixth, which still fits the one entry.
    small = clusters[0]
    rebooted = small.replicas[0]
    rebooted.apply("add_person", {"pid": 2, "country": "US"})
    small.run(4)
    rebooted.crash()
    rebooted.recover(lose_state=True)
    small.run(4)
    with_ordered = tuple(sorted(STAMPS + ("ordered",)))
    with_floor = tuple(sorted(STAMPS + ("floor",)))
    assert rebooted.change_log.floor > 0 and rebooted.ordered_upto == -1
    assert round_stamps(small) == {"r0": {(with_floor, 1)},
                                   "r1": {(with_ordered, 1)}, "r2": {(with_ordered, 1)}}
    rebooted.apply_ordered(0, "add_person", {"pid": 1})
    assert round_stamps(small)["r0"] == {(tuple(sorted(with_floor + ("ordered",))), 1)}
    small.assert_ledger()
