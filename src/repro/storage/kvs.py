"""The lattice KVS: sharded, replicated, coordination-free.

Keys are assigned to shards by a deterministic consistent-hash ring (see
:mod:`repro.storage.ring`); each shard has a configurable number of
replicas.  A ``put`` merges a lattice value into one replica (chosen round-
robin) and is propagated to the shard's other replicas both eagerly (async
replication messages) and periodically (gossip), so replicas converge
without locks or consensus.  ``get`` reads any single replica — eventually
consistent by construction, exactly Anna's model.

Because routing goes through the ring rather than Python's salted builtin
``hash``, every process agrees on key placement regardless of
``PYTHONHASHSEED``, and :meth:`LatticeKVS.reshard` can grow or shrink the
shard count while moving only the keys whose ring ownership changed.

Writes are O(delta), not O(store): each replica holds a plain mutable dict
and merges arriving values entry-wise (in place once it owns the entry — see
the README's mutation-protocol section for the ownership rules), and gossip
ships *deltas* — only the entries that changed since the peer's last
acknowledged round.  Background repair is O(divergence), not O(store): every
``full_sync_every``-th gossip round runs a digest-tree (Merkle)
reconciliation (:mod:`repro.storage.antientropy`) that exchanges the root
digest — O(1) when replicas are already identical — recurses only into
mismatching key ranges via the RPC runtime, and ships only the keys that
actually differ, so dropped gossip or a state-losing recovery still
converges without anyone ever shipping a whole store.  Full-store shipping
survives in exactly two places: snapshot mode, and the
:class:`~repro.cluster.transport.AckedChannel` saturation escalation (a
peer that stopped acking entirely).

All traffic flows through the node's :class:`~repro.cluster.transport.Transport`:
puts and gets are transport RPCs (timeouts, capped retries, duplicate
suppression), replication and gossip are typed batched parcels (everything a
replica sends one peer within a gossip tick rides a single envelope), and
per-peer ack/retransmission bookkeeping lives in an
:class:`~repro.cluster.transport.AckedChannel` driven by the gossip cadence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro.cluster.metrics import MetricsRegistry
from repro.cluster.network import Message, Network
from repro.cluster.node import Node
from repro.cluster.simulator import Simulator
from repro.cluster.transport import AckedChannel, digest_entries
from repro.lattices.base import BOTTOM, Lattice, owns_merge_result
from repro.storage.antientropy import (
    LEAF_LEVEL,
    AntiEntropySession,
    DigestTree,
)
from repro.storage.ring import HashRing, stable_key_bytes

#: Gossip rounds a delta stays outstanding before being retransmitted,
#: giving its ack time to cross the network.  Retransmissions reuse the
#: original round number, so an ack always matches no matter how many
#: resends raced it — the round trip only delays quiescence, never defeats
#: it.
RETRANSMIT_AFTER_ROUNDS = 2

#: Outstanding (unacked) gossip rounds a peer may accumulate before the
#: sender escalates to a full-store sync, which supersedes and clears the
#: whole backlog.  Bounds per-peer bookkeeping under total ack loss (a
#: dead or partitioned peer) at one full store every ~cap rounds — still
#: far below the old snapshot mode's full store every round.
MAX_OUTSTANDING_ROUNDS = 8


class ShardNode(Node):
    """One replica of one shard: a mutable dict of keys to lattice values.

    ``store`` is a plain dict merged entry-wise in place, so a put costs
    O(changed entry) instead of the O(store) copy an immutable map would
    take.  ``_owned`` tracks which stored value objects this replica
    allocated itself and may therefore mutate via ``merge_into``; any value
    whose reference escapes (get replies, gossip payloads, ``value_of``)
    leaves the owned set and is copied on its next local merge, preserving
    snapshot semantics for in-flight messages and external holders.
    """

    def __init__(self, node_id, simulator, network, domain="default",
                 peers: list[Hashable] | None = None,
                 gossip_interval: Optional[float] = None,
                 gossip_mode: str = "delta",
                 full_sync_every: int = 10) -> None:
        super().__init__(node_id, simulator, network, domain)
        if gossip_mode not in ("delta", "snapshot"):
            raise ValueError(f"gossip_mode must be 'delta' or 'snapshot', got {gossip_mode!r}")
        self.store: dict[Hashable, Lattice] = {}
        self.gossip_interval = gossip_interval
        self.gossip_mode = gossip_mode
        self.full_sync_every = max(1, full_sync_every)
        # Routing-table hook, set by LatticeKVS: key -> current owner
        # replica ids.  After a reshard, traffic that still arrives here
        # for a key this replica no longer owns (in-flight puts,
        # replication, stale gossip) is forwarded instead of stored, so an
        # acked write can never strand on a shard reads no longer visit.
        self.ownership: Optional[Callable[[Hashable], list[Hashable]]] = None
        self.puts = 0
        self.gets = 0
        self._owned: set[Hashable] = set()
        # Delta-gossip bookkeeping, all keyed by peer id:
        #   _dirty     keys changed since the last gossip sent to the peer
        #   _channels  one AckedChannel per peer: outstanding round numbers,
        #              the grace period before a retransmission (under the
        #              round's *original* number, so the ack always matches
        #              whatever the link RTT) and the saturation cap at
        #              which a full-store sync supersedes the backlog.  The
        #              channel's tick count doubles as the per-peer round
        #              counter for the periodic full-sync schedule.
        self._dirty: dict[Hashable, set[Hashable]] = {}
        self._channels: dict[Hashable, AckedChannel] = {}
        self._gossip_round = 0
        # Anti-entropy state: the incremental digest tree over the store
        # (maintained in every gossip mode so mode flips never start from a
        # stale tree) and at most one in-flight reconciliation per peer.
        self._tree = DigestTree()
        self._ae_sessions: dict[Hashable, AntiEntropySession] = {}
        self.peers: list[Hashable] = []
        self.set_peers(list(peers or []))
        self.on("put", self._on_put)
        self.on("get", self._on_get)
        self.on("replicate", self._on_replicate)
        self.on("gossip", self._on_gossip)
        self.on("gossip_ack", self._on_gossip_ack)
        self.on("ae_probe", self._on_ae_probe)
        self.on("ae_pull", self._on_ae_pull)
        if gossip_interval:
            self.set_timer(gossip_interval, self._gossip_tick, label=f"kvs-gossip@{node_id}")

    def set_peers(self, peers: list[Hashable]) -> None:
        self.peers = [peer for peer in peers if peer != self.node_id]
        current = set(self.peers)
        for peer in self.peers:
            if peer not in self._dirty:
                # A new peer starts fully unsynced: everything we hold is
                # dirty until gossip ships it.
                self._dirty[peer] = set(self.store)
                self._channels[peer] = AckedChannel(
                    grace=RETRANSMIT_AFTER_ROUNDS, cap=MAX_OUTSTANDING_ROUNDS)
                if self.store:
                    self.network.metrics.increment("kvs.gossip.dirty_marks",
                                                   len(self.store))
        for peer in [p for p in self._dirty if p not in current]:
            del self._dirty[peer]
            self._channels.pop(peer, None)
            self._ae_sessions.pop(peer, None)

    @property
    def _unacked(self) -> dict[Hashable, dict[int, tuple[int, frozenset]]]:
        """Outstanding rounds per peer (a view over the acked channels)."""
        return {peer: channel.pending
                for peer, channel in self._channels.items()}

    # -- local operations ---------------------------------------------------------

    def merge_local(self, key: Hashable, value: Lattice) -> bool:
        """Merge ``value`` into ``key``'s entry in place; True if it grew."""
        return self._merge_entry(key, value)

    def _merge_entry(self, key: Hashable, value: Lattice,
                     exclude: Optional[Hashable] = None) -> bool:
        store = self.store
        current = store.get(key)
        if current is None:
            # The caller (client, network payload) may still hold this
            # object: not ours to mutate until a copying merge happens.
            store[key] = value
            self._owned.discard(key)
        elif type(value).leq is not Lattice.leq:
            # The type has an allocation-free leq: detect no-op merges
            # cheaply, then merge in place once the entry is owned.
            if value.leq(current):
                return False
            if key in self._owned:
                store[key] = current.merge_into(value)
            else:
                merged = current.merge(value)
                store[key] = merged
                if owns_merge_result(merged, current, value):
                    self._owned.add(key)
        else:
            # Fallback leq would itself merge, so merge once and compare —
            # the seed cost — rather than paying for the merge twice.
            merged = current.merge(value)
            if merged == current:
                return False
            store[key] = merged
            if owns_merge_result(merged, current, value):
                self._owned.add(key)
            else:
                self._owned.discard(key)
        self._tree.update(key, store[key])
        if self._dirty:
            marks = 0
            for peer, dirty in self._dirty.items():
                if peer != exclude:
                    dirty.add(key)
                    marks += 1
            if marks:
                # The byte-budget checker's O(Δ) ledger: fresh delta rounds
                # may never ship more entries than were dirty-marked.
                self.network.metrics.increment("kvs.gossip.dirty_marks", marks)
        return True

    def value_of(self, key: Hashable) -> Optional[Lattice]:
        value = self.store.get(key)
        if value is not None:
            # The reference escapes this replica: relinquish in-place
            # ownership so a later local merge copies instead of mutating
            # an object the caller may still be holding.
            self._owned.discard(key)
        return value

    def drop_keys(self, keys: set[Hashable]) -> None:
        """Administratively remove keys (resharding handoff, not a lattice op)."""
        for key in keys:
            self.store.pop(key, None)
            self._owned.discard(key)
            self._tree.remove(key)
        for dirty in self._dirty.values():
            dirty.difference_update(keys)
        # Unacked rounds may still name dropped keys; they are filtered
        # against the live store at (re)send time.

    # -- message handlers ------------------------------------------------------------

    def _misrouted(self, key: Hashable) -> Optional[list[Hashable]]:
        """The key's current owners, iff this replica is not one of them."""
        if self.ownership is None:
            return None
        owners = self.ownership(key)
        return None if self.node_id in owners else owners

    def _on_put(self, message: Message) -> None:
        payload = message.payload
        key, value, request_id = payload["key"], payload["value"], payload["request_id"]
        self.puts += 1
        owners = self._misrouted(key)
        if owners is not None:
            # Relay the whole put to a current owner, preserving the RPC
            # reply routing so the put_ack comes from a replica that
            # durably stored the value — acking here and forwarding
            # best-effort could acknowledge a write every replica then
            # drops.
            self.forward(message, owners[0])
            return
        self.merge_local(key, value)
        for peer in self.peers:
            self.queue(peer, "replicate", {"key": key, "value": value},
                       entries=1)
        self.reply(message, "put_ack",
                   {"request_id": request_id, "replica": self.node_id})

    def _on_replicate(self, message: Message) -> None:
        payload = message.payload
        key, value = payload["key"], payload["value"]
        owners = self._misrouted(key)
        if owners is not None:
            for owner in owners:
                self.queue(owner, "replicate", {"key": key, "value": value},
                           entries=1)
        else:
            self._merge_entry(key, value, exclude=message.source)

    def _on_get(self, message: Message) -> None:
        payload = message.payload
        key, request_id = payload["key"], payload["request_id"]
        self.gets += 1
        value = self.value_of(key)
        self.reply(
            message,
            "get_reply",
            {"request_id": request_id, "key": key, "value": value,
             "replica": self.node_id},
            entries=1 if value is not None else 0,
        )

    # -- gossip ------------------------------------------------------------------------
    #
    # Wire format (see README "Delta-state gossip"): a gossip message is
    #   {"round": int, "kind": "delta" | "full", "entries": {key: lattice}}
    # and is answered by a "gossip_ack" message {"round": int}.  Fresh
    # dirty keys ship as a new delta round; an unacked round past the
    # grace period is retransmitted under its original round number with
    # the keys' current values.  Every ``full_sync_every``-th round to a
    # peer starts a digest-tree anti-entropy exchange (the "ae_probe" /
    # "ae_pull" RPCs below) that repairs divergence the delta machinery
    # missed — dropped replication, a state-losing recovery — by shipping
    # only the keys that actually differ.  A full-store round survives in
    # exactly two cases: snapshot mode (every round) and a saturated
    # channel (a peer that stopped acking), where it supersedes and
    # clears the outstanding backlog.

    def _gossip_tick(self) -> None:
        if not self.alive:
            return
        for peer in self.peers:
            self._send_gossip(peer)
        if self.gossip_interval:
            self.set_timer(self.gossip_interval, self._gossip_tick,
                           label=f"kvs-gossip@{self.node_id}")

    def _send_gossip(self, peer: Hashable) -> None:
        dirty = self._dirty.setdefault(peer, set())
        channel = self._channels.setdefault(
            peer, AckedChannel(grace=RETRANSMIT_AFTER_ROUNDS,
                               cap=MAX_OUTSTANDING_ROUNDS))
        sent = channel.begin_tick()
        if self.gossip_mode == "snapshot" or channel.saturated:
            # The whole store supersedes the outstanding backlog.  This is
            # the only remaining full-store path: snapshot mode by design,
            # and the saturation escalation for a peer that stopped acking
            # (digest recursion needs replies, so a silent peer gets the
            # blunt instrument).
            metrics = self.network.metrics
            if channel.saturated and self.gossip_mode != "snapshot":
                metrics.increment("kvs.gossip.saturation_fulls")
            channel.clear()
            dirty.clear()
            if self.store:  # an empty full sync ships (and counts) nothing
                metrics.increment("kvs.gossip.full_rounds")
                metrics.increment("kvs.gossip.full_entries", len(self.store))
                self._ship(peer, channel, dict(self.store), "full")
                self.transport.flush(peer)
            return
        if sent % self.full_sync_every == 0:
            # The old full-store cadence, now a digest exchange: O(1) probe
            # when converged, O(divergence) repair when not.  Additive — the
            # delta/retransmission machinery below still runs this tick.
            self._start_anti_entropy(peer)
        if not channel.pending and not dirty:
            # Idle delta tick: nothing unacked, nothing dirty.  The cadence
            # already advanced (begin_tick above — full-sync rounds must keep
            # their schedule so a state-lost replica is re-filled on time),
            # and the flush still runs so anything *other* code queued for
            # the peer this instant ships exactly as it always did.
            self.transport.flush(peer)
            return
        metrics = self.network.metrics
        # Retransmit stale unacked rounds under their original numbers with
        # the keys' current values, so the eventual ack matches no matter
        # how slow the link is.  Younger rounds just await their acks.
        for round_no, keys in channel.stale_rounds():
            # Sorted so payload iteration order (and any per-key forwarding
            # a receiver does) is identical under every PYTHONHASHSEED —
            # set iteration order is salted and would fork the event trace.
            entries = {key: self.store[key]
                       for key in sorted(keys, key=repr) if key in self.store}
            if not entries:
                # Every key this round carried was dropped from the store;
                # nothing is left that needs acknowledging.
                channel.forget(round_no)
                continue
            self._owned.difference_update(entries)
            channel.track(round_no, keys)
            metrics.increment("kvs.gossip.retransmit_entries", len(entries))
            self.queue(peer, "gossip",
                       {"round": round_no, "kind": "delta", "entries": entries},
                       entries=len(entries))
        # Fresh changes ship in their own new round.  Sorted for the same
        # cross-PYTHONHASHSEED determinism reason as retransmissions above.
        if dirty:
            entries = {key: self.store[key]
                       for key in sorted(dirty, key=repr) if key in self.store}
            dirty.clear()
            metrics.increment("kvs.gossip.fresh_entries", len(entries))
            self._ship(peer, channel, entries, "delta")
        # The cadence flush: everything this tick queued for the peer
        # (retransmissions + the fresh round) rides one envelope.
        self.transport.flush(peer)

    def _ship(self, peer: Hashable, channel: AckedChannel,
              entries: dict, kind: str) -> None:
        if not entries:
            return
        self._gossip_round += 1
        round_no = self._gossip_round
        # Payload values alias live store entries; give up in-place
        # ownership so they are copy-on-write from now on and the in-flight
        # message keeps reflecting state at send time.
        self._owned.difference_update(entries)
        channel.track(round_no, frozenset(entries))
        self.queue(peer, "gossip",
                   {"round": round_no, "kind": kind, "entries": entries},
                   entries=len(entries))

    def _on_gossip(self, message: Message) -> None:
        payload = message.payload
        for key, value in payload["entries"].items():
            owners = self._misrouted(key)
            if owners is not None:
                # Stale gossip may carry keys this shard handed off during a
                # reshard; forward them onward rather than resurrecting a
                # dropped copy on a shard reads no longer visit.
                for owner in owners:
                    self.queue(owner, "replicate", {"key": key, "value": value},
                               entries=1)
            else:
                self._merge_entry(key, value, exclude=message.source)
        self.queue(message.source, "gossip_ack", {"round": payload["round"]})

    def _on_gossip_ack(self, message: Message) -> None:
        channel = self._channels.get(message.source)
        if channel is not None:
            channel.ack(message.payload["round"])
        # An ack for a superseded round is ignored: its keys were folded
        # into a later outstanding round, which still awaits its own ack.

    # -- anti-entropy ------------------------------------------------------------------
    #
    # Digest-tree reconciliation (see :mod:`repro.storage.antientropy`):
    #
    #   request "ae_probe"  {"level": L, "buckets": {bucket: digest}}
    #   reply               {"level": L, "diff": [bucket, ...]}           converged
    #                       {"level": L, "diff": [...],
    #                        "children": {bucket: {child: digest}}}       interior
    #                       {"level": LEAF, "diff": [...],
    #                        "leaves": {bucket: {key: entry_digest}}}     leaf
    #   request "ae_pull"   {"keys": [key, ...]}
    #   reply               {"entries": {key: lattice}}
    #
    # The initiator probes level by level, recursing only into buckets whose
    # digests differ; at the leaves it ships keys the peer is missing or
    # holds differently as a normal delta round (acked, retransmitted like
    # any other), and pulls keys it lacks with "ae_pull".  Digest payloads
    # are priced honestly via ``digest_entries`` (16 bytes per digest on the
    # wire).  All payload maps are built in sorted order — bucket order for
    # digests, repr order for keys — so the event trace is identical under
    # every PYTHONHASHSEED.

    def _start_anti_entropy(self, peer: Hashable) -> None:
        """Begin a digest reconciliation with ``peer`` (at most one in flight)."""
        if peer in self._ae_sessions:
            # The previous exchange is still recursing (slow link); let it
            # finish rather than racing two sessions against one peer.
            self.network.metrics.increment("kvs.antientropy.skipped")
            return
        session = AntiEntropySession(peer=peer, started_at=self.simulator.now)
        self._ae_sessions[peer] = session
        self.network.metrics.increment("kvs.antientropy.rounds")
        self._ae_send_probe(session, 0, {0: self._tree.root()})

    def _ae_send_probe(self, session: AntiEntropySession, level: int,
                       buckets: dict[int, int]) -> None:
        session.level = level
        self.request(
            session.peer, "ae_probe", {"level": level, "buckets": buckets},
            entries=digest_entries(len(buckets)),
            on_reply=lambda payload: self._on_ae_probe_reply(session, payload),
            on_timeout=lambda: self._ae_abort(session),
        )

    def _on_ae_probe_reply(self, session: AntiEntropySession, payload: Any) -> None:
        if self._ae_sessions.get(session.peer) is not session:
            return  # superseded by recovery/reshard; a late reply is void
        session.probes += 1
        diff = payload["diff"]
        level = payload["level"]
        if not diff:
            if level == 0:
                # Root digests matched: the replicas are provably identical
                # and this round cost one digest each way.
                self.network.metrics.increment("kvs.antientropy.converged_rounds")
            self._ae_finish(session)
            return
        if level < LEAF_LEVEL:
            next_buckets: dict[int, int] = {}
            for bucket in diff:
                mine = self._tree.child_digests(level, bucket)
                theirs = payload["children"].get(bucket, {})
                # Pre-filter here: only children whose digests already
                # disagree get probed, so a bucket diverging in one child
                # recurses into exactly that child.
                for child in sorted(set(mine) | set(theirs)):
                    if mine.get(child, 0) != theirs.get(child, 0):
                        next_buckets[child] = mine.get(child, 0)
            if next_buckets:
                self._ae_send_probe(session, level + 1, next_buckets)
            else:
                # The parents' mismatch resolved itself between probes
                # (concurrent gossip healed it); nothing left to chase.
                self._ae_finish(session)
            return
        self._ae_reconcile_leaves(session, diff, payload["leaves"])

    def _ae_reconcile_leaves(self, session: AntiEntropySession,
                             diff: list[int], leaves: dict) -> None:
        peer = session.peer
        to_send: dict[Hashable, Lattice] = {}
        to_pull: list[Hashable] = []
        for bucket in diff:
            mine = self._tree.leaf_summary(bucket)
            theirs = leaves.get(bucket, {})
            for key, digest in mine.items():
                # Keys the peer is missing or holds with different content.
                # A differing digest also lands in ``to_pull`` below: both
                # sides may hold lattice state the other lacks.
                if theirs.get(key) != digest and key in self.store:
                    to_send[key] = self.store[key]
            for key, digest in theirs.items():
                if mine.get(key) != digest:
                    to_pull.append(key)
        if to_send:
            channel = self._channels.setdefault(
                peer, AckedChannel(grace=RETRANSMIT_AFTER_ROUNDS,
                                   cap=MAX_OUTSTANDING_ROUNDS))
            self.network.metrics.increment("kvs.antientropy.repair_entries",
                                           len(to_send))
            # Repairs ride the normal delta machinery: tracked in the acked
            # channel, retransmitted if the ack is lost.
            self._ship(peer, channel, to_send, "delta")
            self._dirty.get(peer, set()).difference_update(to_send)
            self.transport.flush(peer)
        if to_pull:
            self.request(
                peer, "ae_pull", {"keys": to_pull},
                entries=digest_entries(len(to_pull)),
                on_reply=lambda payload: self._on_ae_pull_reply(session, payload),
                on_timeout=lambda: self._ae_abort(session),
            )
        else:
            self._ae_finish(session)

    def _on_ae_pull_reply(self, session: AntiEntropySession, payload: Any) -> None:
        if self._ae_sessions.get(session.peer) is not session:
            return
        entries = payload["entries"]
        self.network.metrics.increment("kvs.antientropy.repair_entries",
                                       len(entries))
        for key, value in entries.items():
            owners = self._misrouted(key)
            if owners is not None:
                # Same reshard guard as gossip: a pulled key this replica
                # handed off mid-exchange is forwarded, not resurrected.
                for owner in owners:
                    self.queue(owner, "replicate", {"key": key, "value": value},
                               entries=1)
            else:
                self._merge_entry(key, value, exclude=session.peer)
        self._ae_finish(session)

    def _ae_finish(self, session: AntiEntropySession) -> None:
        if self._ae_sessions.get(session.peer) is session:
            del self._ae_sessions[session.peer]

    def _ae_abort(self, session: AntiEntropySession) -> None:
        if self._ae_sessions.get(session.peer) is session:
            del self._ae_sessions[session.peer]
            self.network.metrics.increment("kvs.antientropy.aborted")
        # The next cadence tick starts over from the root — an aborted
        # exchange never wedges anti-entropy.

    def _on_ae_probe(self, message: Message) -> None:
        payload = message.payload
        level = payload["level"]
        tree = self._tree
        diff = [bucket for bucket, digest in payload["buckets"].items()
                if tree.digest(level, bucket) != digest]
        if not diff:
            self.reply(message, "ae_probe_reply", {"level": level, "diff": []})
            return
        if level < LEAF_LEVEL:
            children = {bucket: tree.child_digests(level, bucket)
                        for bucket in diff}
            count = len(diff) + sum(len(c) for c in children.values())
            self.reply(message, "ae_probe_reply",
                       {"level": level, "diff": diff, "children": children},
                       entries=digest_entries(count))
        else:
            leaves = {bucket: tree.leaf_summary(bucket) for bucket in diff}
            count = len(diff) + sum(len(s) for s in leaves.values())
            self.reply(message, "ae_probe_reply",
                       {"level": level, "diff": diff, "leaves": leaves},
                       entries=digest_entries(count))

    def _on_ae_pull(self, message: Message) -> None:
        entries: dict[Hashable, Lattice] = {}
        for key in message.payload["keys"]:
            value = self.value_of(key)  # relinquishes ownership: it escapes
            if value is not None:
                entries[key] = value
        self.reply(message, "ae_pull_reply", {"entries": entries},
                   entries=len(entries))

    def recover(self, lose_state: bool = False) -> None:
        """Recover and re-arm the gossip timer that :meth:`Node.crash` cancelled.

        Gossip is the loss backstop of the delta protocol — a recovered
        replica that never gossips again could diverge permanently once a
        replicate message to it or from it is dropped.
        """
        was_down = not self.alive
        super().recover(lose_state)
        if was_down:
            # In-flight reconciliations died with the crash (their RPC
            # timers were cancelled); drop the sessions so the next cadence
            # tick can start fresh instead of waiting on a ghost.
            self._ae_sessions.clear()
        if was_down and self.gossip_interval:
            self.set_timer(self.gossip_interval, self._gossip_tick,
                           label=f"kvs-gossip@{self.node_id}")

    def reset_state(self) -> None:
        if self.store:
            # Divergence ledger for the byte-budget checker: losing n
            # entries licenses O(n) repair traffic to re-converge.
            self.network.metrics.increment("kvs.antientropy.lost_entries",
                                           len(self.store))
        self.store = {}
        self._owned.clear()
        self._tree.clear()
        self._ae_sessions.clear()
        for peer in self._dirty:
            self._dirty[peer] = set()
            self._channels[peer].clear()
        # Channel tick counts are preserved: the periodic anti-entropy
        # schedule keeps running, and digest recursion against a now-empty
        # tree is exactly what re-fills a state-losing recovery.


@dataclass(frozen=True)
class ReshardReport:
    """What a :meth:`LatticeKVS.reshard` call did."""

    old_shard_count: int
    new_shard_count: int
    keys_moved: int
    keys_total: int

    @property
    def moved_fraction(self) -> float:
        return self.keys_moved / self.keys_total if self.keys_total else 0.0

    def __repr__(self) -> str:
        return (
            f"ReshardReport({self.old_shard_count}->{self.new_shard_count} shards, "
            f"moved {self.keys_moved}/{self.keys_total} keys)"
        )


class LatticeKVS:
    """The cluster-level KVS: shard routing, replica management, metrics."""

    def __init__(self, simulator: Simulator, network: Network,
                 shard_count: int = 4, replication_factor: int = 1,
                 gossip_interval: Optional[float] = 25.0,
                 metrics: MetricsRegistry | None = None,
                 vnodes: int = 64,
                 gossip_mode: str = "delta",
                 full_sync_every: int = 10,
                 placement=None) -> None:
        if shard_count < 1 or replication_factor < 1:
            raise ValueError("shard_count and replication_factor must be >= 1")
        self.simulator = simulator
        self.network = network
        self.shard_count = shard_count
        self.replication_factor = replication_factor
        #: ``(shard_index, replica_index) -> failure domain`` for replica
        #: placement (e.g. :func:`repro.placement.geo.locality_aware_domain`).
        #: ``None`` keeps the default ``az-<replica_index>`` striping.  Also
        #: consulted for shards a live reshard creates.
        self.placement = placement
        self.gossip_interval = gossip_interval
        self.gossip_mode = gossip_mode
        self.full_sync_every = full_sync_every
        self.metrics = metrics or MetricsRegistry()
        self.ring = HashRing(vnodes=vnodes)
        self.shards: list[list[ShardNode]] = []
        self._replica_cycle: list[itertools.cycle] = []
        self._generation = itertools.count()  # unique node ids across reshards
        # Hot-path memo of ring lookups; invalidated whenever the ring
        # changes.  Keyed by the canonical byte encoding, not the key
        # itself: dict equality conflates 1 == True == 1.0, which would
        # make cached routing depend on query order.
        self._route_cache: dict[bytes, int] = {}
        for shard_index in range(shard_count):
            self._build_shard(shard_index)
            self.ring.add_node(shard_index)

    def _build_shard(self, shard_index: int) -> None:
        """Create the replica group for ``shard_index`` and register its peers."""
        generation = next(self._generation)
        replicas = []
        for replica_index in range(self.replication_factor):
            node_id = f"kvs-g{generation}-s{shard_index}-r{replica_index}"
            if self.placement is not None:
                domain = self.placement(shard_index, replica_index)
            else:
                domain = f"az-{replica_index}"
            replicas.append(
                ShardNode(node_id, self.simulator, self.network,
                          domain=domain,
                          gossip_interval=self.gossip_interval,
                          gossip_mode=self.gossip_mode,
                          full_sync_every=self.full_sync_every)
            )
        replica_ids = [replica.node_id for replica in replicas]
        for replica in replicas:
            replica.set_peers(replica_ids)
            replica.ownership = self._owners_of
        self.shards.append(replicas)
        self._replica_cycle.append(itertools.cycle(range(self.replication_factor)))

    def _owners_of(self, key: Hashable) -> list[Hashable]:
        """Current owner replica ids for ``key`` (the replicas' routing table)."""
        return [replica.node_id for replica in self.shards[self.shard_for(key)]]

    # -- routing ------------------------------------------------------------------------

    def shard_for(self, key: Hashable) -> int:
        """The shard owning ``key`` — deterministic under any PYTHONHASHSEED."""
        cache_key = stable_key_bytes(key)
        shard = self._route_cache.get(cache_key)
        if shard is None:
            if len(self._route_cache) >= 1_000_000:
                self._route_cache.clear()
            shard = self._route_cache[cache_key] = self.ring.node_for(key)
        return shard

    def replicas_for(self, key: Hashable) -> list[ShardNode]:
        return self.shards[self.shard_for(key)]

    def pick_replica(self, key: Hashable) -> ShardNode:
        """Route ``key`` to a live replica of its shard (round-robin)."""
        shard_index = self.shard_for(key)
        replicas = self.shards[shard_index]
        for _ in range(len(replicas)):
            replica = replicas[next(self._replica_cycle[shard_index])]
            if replica.alive:
                return replica
        return replicas[0]

    # -- synchronous-style API (drives the simulator internally) --------------------------

    def put(self, key: Hashable, value: Lattice) -> None:
        """Merge ``value`` into ``key`` at one replica and replicate asynchronously."""
        replica = self.pick_replica(key)
        replica.merge_local(key, value)
        self.metrics.increment("kvs.puts")
        for peer_id in replica.peers:
            replica.queue(peer_id, "replicate", {"key": key, "value": value},
                          entries=1)

    def get(self, key: Hashable) -> Optional[Lattice]:
        """Read ``key`` from one (possibly stale) replica."""
        self.metrics.increment("kvs.gets")
        replica = self.pick_replica(key)
        return replica.value_of(key)

    def get_merged(self, key: Hashable) -> Optional[Lattice]:
        """Read ``key`` merged across all replicas of its shard (strongest read)."""
        self.metrics.increment("kvs.gets")
        merged: Any = BOTTOM
        found = False
        for replica in self.replicas_for(key):
            value = replica.value_of(key)
            if value is not None:
                merged = merged.merge(value)
                found = True
        return merged if found else None

    def settle(self, horizon: float = 500.0) -> None:
        """Advance the simulation far enough for replication/gossip to converge.

        Gossip timers re-arm forever, so "run until idle" would never return;
        instead we advance a fixed simulated-time horizon that comfortably
        covers several gossip rounds plus in-flight replication messages.
        """
        self.simulator.run(until=self.simulator.now + horizon)

    # -- resharding -------------------------------------------------------------------

    def reshard(self, new_shard_count: int) -> ReshardReport:
        """Grow or shrink the cluster to ``new_shard_count`` shards live.

        Consistent hashing keeps movement minimal: only keys whose ring
        ownership changed are migrated.  Each moved key's locally-merged
        value lands synchronously on one replica of its new shard (so a
        dropped network message cannot lose it) and fans out to the other
        replicas asynchronously; every replica checks its routing table on
        arriving traffic, so in-flight or stale messages for a moved key
        (puts, replication, gossip) are redirected to the new owners
        instead of stranding on a shard reads no longer visit.  Lattice
        merge makes
        all of this safe to interleave with live writes; call
        :meth:`settle` before expecting :meth:`get_merged` to observe
        every moved key on every replica.
        """
        if new_shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        old_shard_count = self.shard_count
        if new_shard_count == old_shard_count:
            return ReshardReport(old_shard_count, new_shard_count, 0, self.total_keys())

        for shard_index in range(old_shard_count, new_shard_count):
            self._build_shard(shard_index)
            self.ring.add_node(shard_index)
        removed = list(range(new_shard_count, old_shard_count))
        for shard_index in removed:
            self.ring.remove_node(shard_index)
        self.shard_count = new_shard_count
        self._route_cache.clear()

        moved = 0
        total = 0
        for shard_index in range(old_shard_count):
            replicas = self.shards[shard_index]
            keys = {key for replica in replicas for key in replica.store}
            moved_keys: set[Hashable] = set()
            for key in sorted(keys, key=repr):
                total += 1
                target = self.ring.node_for(key)
                if target == shard_index:
                    continue
                moved += 1
                moved_keys.add(key)
                merged: Any = BOTTOM
                for replica in replicas:
                    value = replica.value_of(key)
                    if value is not None:
                        merged = merged.merge(value)
                target_replicas = self.shards[target]
                # Land one durable copy synchronously (mirroring put());
                # only then drop the source and fan out asynchronously, so
                # a dropped migration message can never lose the key.
                landing = next((r for r in target_replicas if r.alive),
                               target_replicas[0])
                landing.merge_local(key, merged)
                for target_replica in target_replicas:
                    if target_replica is landing:
                        continue
                    landing.queue(target_replica.node_id, "replicate",
                                  {"key": key, "value": merged}, entries=1)
            if moved_keys:
                for replica in replicas:
                    replica.drop_keys(moved_keys)

        for shard_index in removed:
            for replica in self.shards[shard_index]:
                replica.crash()
        if removed:
            self.shards = self.shards[:new_shard_count]
            self._replica_cycle = self._replica_cycle[:new_shard_count]

        self.metrics.increment("kvs.reshards")
        return ReshardReport(old_shard_count, new_shard_count, moved, total)

    # -- reporting --------------------------------------------------------------------------

    def all_nodes(self) -> list[ShardNode]:
        return [replica for shard in self.shards for replica in shard]

    def total_keys(self) -> int:
        """Distinct keys stored, counting each shard's key once across replicas.

        Before convergence a key may exist on only some replicas of its
        shard; the union per shard counts it exactly once either way.
        """
        return sum(
            len({key for replica in shard for key in replica.store})
            for shard in self.shards
        )
