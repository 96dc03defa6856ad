"""The lattice KVS: sharded, replicated, coordination-free.

Keys are assigned to shards by a deterministic consistent-hash ring (see
:mod:`repro.storage.ring`); each shard has a configurable number of
replicas.  A ``put`` merges a lattice value into one replica (chosen round-
robin), which ships it to the shard's other replicas at once and answers for
its delivery (see "Replication" below), so replicas converge without locks
or consensus.  ``get`` reads any single replica — eventually consistent by
construction, exactly Anna's model.

Because routing goes through the ring rather than Python's salted builtin
``hash``, every process agrees on key placement regardless of
``PYTHONHASHSEED``, and :meth:`LatticeKVS.reshard` can grow or shrink the
shard count while moving only the keys whose ring ownership changed.

Writes are O(delta), not O(store): each replica holds a plain mutable dict
and rebinds an entry to the merge of its value and the arriving one; the
lattice values themselves are immutable.

Replication
-----------

**A write crosses each replica link once**, by the watermark protocol of
:mod:`repro.cluster.watermark` over keys, among a replica group fixed when
:class:`LatticeKVS` builds it (a reshard builds and retires whole groups).
A change that *enters the group* at a replica — a client ``put``,
:meth:`LatticeKVS.put`, a reshard landing, an entry a non-peer hands over —
is stamped; when the event that stamped it returns, each peer gets one
``gossip`` window ``{"since": shipped, "seq": log seq, "entries": {key:
current value}}``, a burst stamped by one event riding one window per peer.
The receiver merges the entries *without* stamping them, so nothing is
echoed: every origin delivers its own changes to every peer itself, both
operands of a genuine merge have an origin doing so, and the digest tree is
the third-party backstop for an origin that loses its state between two
deliveries.  It answers each window at once with ``gossip_ack {"seen": n,
"until": None}``.  Loss is repaired by naming the gap: on its own tick a
receiver still holding a window in ``ahead`` sends ``{"seen": n, "until":
first gap's end}`` and the sender ships exactly the stamps in ``(seen,
until]`` again (an empty window if they were superseded — the receiver
still advances).  An idle tick sends nothing, and the log is trimmed at
``min(confirmed)`` on every ack: it holds what is unacknowledged, not the
store.

State loss and silent divergence are the digest exchange's job
(:mod:`repro.storage.antientropy`), every ``full_sync_every``-th tick toward
a peer and at once after a state-losing recovery; it ships only the keys
that differ.  No path ships a whole store.

All traffic flows through the node's :class:`~repro.cluster.transport.Transport`:
puts and gets are transport RPCs (timeouts, capped retries, duplicate
suppression); windows, acks and a client's ``put_ack`` queued by one event
share an envelope per destination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.cluster.network import Message, Network
from repro.cluster.node import DEFAULT_DOMAIN, Node
from repro.cluster.simulator import Simulator
from repro.cluster.watermark import PeerSync, StampLog
from repro.lattices.base import BOTTOM, Lattice
from repro.storage.antientropy import AntiEntropy, DigestTree
from repro.storage.ring import HashRing, stable_key_bytes


class ShardNode(Node):
    """One replica of one shard: a mutable dict of keys to lattice values.

    ``store`` is a plain dict whose entries are rebound to merge results,
    so a put costs O(changed entry) instead of the O(store) copy an
    immutable map would take.  Stored values are immutable lattice points:
    a get reply or gossip payload may share one with the store and still
    reflects state at send time.
    """

    def __init__(self, node_id, simulator, network, domain=DEFAULT_DOMAIN,
                 peers: list[Hashable] | None = None,
                 gossip_interval: Optional[float] = None,
                 full_sync_every: int = 10) -> None:
        super().__init__(node_id, simulator, network, domain)
        self.store: dict[Hashable, Lattice] = {}
        self.gossip_interval = gossip_interval
        self.full_sync_every = max(1, full_sync_every)
        # The store this replica serves in, and its replica group there;
        # both set by LatticeKVS.  After a reshard, traffic that still
        # arrives here for a key the ring routes to another group
        # (in-flight puts, stale gossip) is forwarded instead of stored, so
        # an acked write can never strand on a shard reads no longer visit.
        self.kvs: Optional[LatticeKVS] = None
        self.group: list[ShardNode] = []
        self.puts = 0
        self.gets = 0
        # The change log: the keys whose latest change entered the replica
        # group here, trimmed to what some peer has yet to confirm.
        self.change_log = StampLog()
        # The shard's replica group, fixed here: every replica of a shard is
        # built with the same list, and no replica's list changes later.
        self.peers = [peer for peer in peers or () if peer != node_id]
        self._sync = {peer: PeerSync() for peer in self.peers}
        # Gossip ticks so far; schedules the digest exchanges.
        self._ticks = 0
        self._push_bound = False
        #: The digest tree over ``store``, fed by every store mutation.
        self.tree = DigestTree()
        self.on("put", self._on_put)
        self.on("get", self._on_get)
        self.on("replicate", self._on_replicate)
        self.on("gossip", self._on_gossip)
        self.on("gossip_ack", self._on_gossip_ack)
        self.anti_entropy = AntiEntropy(
            self, self.tree, self.value_of,
            lambda key, value: self._take(key, value, self._merge_entry))
        self._arm_gossip()

    def _arm_gossip(self) -> None:
        if self.gossip_interval:
            self.set_timer(self.gossip_interval, self._gossip_tick,
                           label=f"kvs-gossip@{self.node_id}")

    # -- local operations ---------------------------------------------------------

    def merge_local(self, key: Hashable, value: Lattice) -> bool:
        """Merge a value that enters the replica group here; True if the
        entry grew — in which case the change is stamped and ships to every
        peer when the current event returns."""
        grew = self._merge_entry(key, value)
        if grew and self._sync:
            self.change_log.stamp(key)
            # The byte-budget checker's O(Δ) ledger: one obligation per peer.
            self.network.metrics.increment("kvs.gossip.dirty_marks",
                                           len(self._sync))
            if not self._push_bound:  # one push per event
                self._push_bound = True
                self.simulator.defer(self._push)
        return grew

    def _merge_entry(self, key: Hashable, value: Lattice) -> bool:
        """Merge ``value`` into ``key``'s entry; True if it grew."""
        current = self.store.get(key)
        merged = value if current is None else current.merge(value)
        if merged is current:  # ``merge`` returns ``self`` when nothing grew
            return False
        self.store[key] = merged
        self.tree.update(key, merged)
        return True

    def value_of(self, key: Hashable) -> Optional[Lattice]:
        return self.store.get(key)

    def drop_keys(self, keys: set[Hashable]) -> None:
        """Administratively remove keys (resharding handoff, not a lattice op)."""
        for key in keys:
            self.store.pop(key, None)
            self.tree.remove(key)
            self.change_log.stamps.pop(key, None)

    # -- message handlers ------------------------------------------------------------

    def _misrouted(self, key: Hashable) -> Optional[list[ShardNode]]:
        """The key's current replica group, iff this replica is not in it.

        A group is fixed when it is built, so it is this replica's own
        group exactly when it is the same list; a retired group is in no
        routing table any more, so its replicas forward everything."""
        if self.kvs is None:
            return None
        owners = self.kvs.replicas_for(key)
        return None if owners is self.group else owners

    def _take(self, key: Hashable, value: Lattice, merge) -> None:
        """``merge`` an arriving entry — unless a reshard moved the key away:
        then hand it to every current owner rather than resurrecting a
        dropped copy on a shard reads no longer visit."""
        owners = self._misrouted(key)
        if owners is None:
            merge(key, value)
        else:
            for owner in owners:
                self.queue(owner.node_id, "replicate",
                           {"key": key, "value": value}, entries=1)

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
            self.forward(message, owners[0].node_id)
            return
        self.merge_local(key, value)
        self.reply(message, "put_ack",
                   {"request_id": request_id, "replica": self.node_id})

    def _on_replicate(self, message: Message) -> None:
        # Only a replica of another shard sends this (misrouted traffic after
        # a reshard), never a peer: the entry enters the group here.
        payload = message.payload
        self._take(payload["key"], payload["value"], self.merge_local)

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
    # A window is priced by its entries; ``since``/``seq`` and an ack's
    # ``seen``/``until`` ride the message header.  A one-shot parcel
    # (digest repair) carries no stamps and earns no ack: if one is lost the
    # next exchange finds the same divergence.

    def _push(self) -> None:
        """The first shipment: what the event that just returned stamped."""
        self._push_bound = False
        if not self.alive:
            return  # the next tick after recovery ships since=shipped
        for peer, sync in self._sync.items():
            if sync.shipped < self.change_log.seq:
                self._ship_window(peer, sync, sync.shipped)

    def _ship_window(self, peer: Hashable, sync: PeerSync, since: int,
                     until: Optional[int] = None) -> None:
        """Queue the changes stamped in ``(since, until]`` — to the log's
        tail when ``until`` is None — with their current values."""
        seq = self.change_log.seq if until is None else until
        stamped = self.change_log.since(since, seq)
        # Change order, so the payload is the same under every PYTHONHASHSEED.
        store = self.store
        entries = {key: store[key] for key, _ in stamped}
        shipped = sync.shipped
        fresh = sum([stamp > shipped for _, stamp in stamped])
        metrics = self.network.metrics
        if fresh:
            metrics.increment("kvs.gossip.fresh_entries", fresh)
        if len(entries) > fresh:
            metrics.increment("kvs.gossip.retransmit_entries",
                              len(entries) - fresh)
        if seq > shipped:
            sync.shipped = seq
        self.queue(peer, "gossip",
                   {"since": since, "seq": seq, "entries": entries},
                   entries=len(entries))

    def _gossip_tick(self) -> None:
        """One gossip tick toward every peer; idle, it sends nothing."""
        if not self.alive:
            return
        self._ticks += 1
        for peer, sync in self._sync.items():
            if self._ticks % self.full_sync_every == 0:
                # O(1) probe when converged, O(divergence) repair when not.
                self.anti_entropy.start(peer)
            if sync.ahead:
                # A gap that outlived a round is a loss, not a reordering.
                self.queue(peer, "gossip_ack",
                           {"seen": sync.seen, "until": min(sync.ahead)})
            since = sync.due()
            if since < self.change_log.seq:
                self._ship_window(peer, sync, since)
            # The cadence flush: a tick called outside an event (tests do)
            # still ships before it returns.
            self.transport.flush(peer)
        self._arm_gossip()

    def _on_gossip(self, message: Message) -> None:
        payload = message.payload
        # Merged, never stamped: the origin answers for delivering its
        # changes to every peer, so nothing a peer sent is passed on.
        for key, value in payload["entries"].items():
            self._take(key, value, self._merge_entry)
        since = payload.get("since")
        if since is None:
            return  # a one-shot parcel
        sync = self._sync[message.source]
        sync.on_window(since, payload["seq"])
        self.queue(message.source, "gossip_ack",
                   {"seen": sync.seen, "until": None})

    def _on_gossip_ack(self, message: Message) -> None:
        sync = self._sync[message.source]
        seen, until = message.payload["seen"], message.payload["until"]
        if sync.confirm(seen):
            self.change_log.trim(self._sync.values())
        if until is not None:
            # The peer holds a later window but not (seen, until]: fill
            # exactly that — empty if every stamp in it was superseded or
            # lost with our state, so the peer advances all the same.
            self._ship_window(message.source, sync, seen, until)

    def recover(self, lose_state: bool = False) -> None:
        """Recover and re-arm the gossip timer that :meth:`Node.crash` cancelled.

        The tick is the loss backstop — a recovered replica that never
        ticks again could diverge permanently once a window to it or from it
        is dropped.  A replica that comes back empty says so at once: it
        opens a digest exchange with its first peer instead of serving
        nothing until the cadence's next one.  A live replica lost nothing
        and is left as it is.
        """
        if self.alive:
            return
        super().recover(lose_state)
        # The crash dropped every open exchange's RPCs with the transport.
        self.anti_entropy.in_flight.clear()
        self._arm_gossip()
        if lose_state and self.peers:
            self.anti_entropy.start(self.peers[0])

    def reset_state(self) -> None:
        if self.store:
            # Divergence ledger for the byte-budget checker: losing n
            # entries licenses O(n) repair traffic to re-converge.
            self.network.metrics.increment("kvs.antientropy.lost_entries",
                                           len(self.store))
        self.store = {}
        self.tree.clear()
        # The log's entries are lost and nothing is owed from it: refilling
        # is the digest tree's job.  Its numbering and each ``seen`` carry
        # on, so no stamp is reused and no peer has to start over; so does
        # the tick count, which keeps the digest exchanges on schedule.
        seq = self.change_log.seq
        self.change_log = StampLog(seq)
        for sync in self._sync.values():
            sync.confirmed = sync.shipped = seq
            sync.overdue = 0
            sync.ahead.clear()


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
    """The cluster-level KVS: shard routing and replica management."""

    def __init__(self, simulator: Simulator, network: Network,
                 shard_count: int = 4, replication_factor: int = 1,
                 gossip_interval: Optional[float] = 25.0,
                 vnodes: int = 64,
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
        self.full_sync_every = full_sync_every
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
        """Create the replica group for ``shard_index``, each replica built
        knowing all of it."""
        generation = next(self._generation)
        replica_ids = [f"kvs-g{generation}-s{shard_index}-r{replica_index}"
                       for replica_index in range(self.replication_factor)]
        replicas = []
        for replica_index, node_id in enumerate(replica_ids):
            if self.placement is not None:
                domain = self.placement(shard_index, replica_index)
            else:
                domain = f"az-{replica_index}"
            replica = ShardNode(node_id, self.simulator, self.network,
                                domain=domain, peers=replica_ids,
                                gossip_interval=self.gossip_interval,
                                full_sync_every=self.full_sync_every)
            replica.kvs, replica.group = self, replicas
            replicas.append(replica)
        self.shards.append(replicas)
        self._replica_cycle.append(itertools.cycle(range(self.replication_factor)))

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
        """Merge ``value`` into ``key`` at one replica, which ships it to its peers."""
        self.pick_replica(key).merge_local(key, value)

    def get(self, key: Hashable) -> Optional[Lattice]:
        """Read ``key`` from one (possibly stale) replica."""
        replica = self.pick_replica(key)
        return replica.value_of(key)

    def get_merged(self, key: Hashable) -> Optional[Lattice]:
        """Read ``key`` merged across all replicas of its shard (strongest read)."""
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
        dropped network message cannot lose it), which ships it to the
        other replicas like any write; every replica checks its routing
        table on arriving traffic, so in-flight or stale messages for a
        moved key (puts, gossip) are redirected to the new owners instead
        of stranding on a shard reads no longer visit.  Lattice merge makes
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
                # only then drop the source, so a dropped migration message
                # can never lose the key.  The landing replica ships it on.
                landing = next((r for r in target_replicas if r.alive),
                               target_replicas[0])
                landing.merge_local(key, merged)
            if moved_keys:
                for replica in replicas:
                    replica.drop_keys(moved_keys)

        for shard_index in removed:
            for replica in self.shards[shard_index]:
                replica.crash()
        if removed:
            self.shards = self.shards[:new_shard_count]
            self._replica_cycle = self._replica_cycle[:new_shard_count]

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
