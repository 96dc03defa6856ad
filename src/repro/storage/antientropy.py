"""Digest-tree anti-entropy: O(divergence) repair between replicas.

Each :class:`~repro.storage.kvs.ShardNode` keeps a :class:`DigestTree` over
its store — a fixed-depth hash tree bucketed by the same canonical
``stable_digest`` ranges the :class:`~repro.storage.ring.HashRing` routes by
— and its :class:`AntiEntropy` compares that tree with a peer's over the
wire: the root digest first (O(1) when converged), recursing only into
mismatching ranges and shipping only the keys that differ.

The exchange
------------

The initiator drives one RPC chain per peer, at most one in flight.  Each
``ae_probe`` carries one level's disagreeing bucket digests; the peer
answers with the buckets that differ on its side too and, for each, its
children's digests, or its members' ``{key: entry digest}`` map when the
bucket is a leaf or the probe's digest for it is 0 (the initiator holds it
empty).  A bucket settles by keys in the reply that finds it: one answered
by its members, or one the peer holds empty (no children), and the
initiator pushes the keys the peer lacks or holds differently as a one-shot
unstamped ``gossip`` parcel right away.  The keys it lacks or holds
differently collect on the way down and ride the chain's one ``ae_pull``,
sent when no bucket is left to probe, so an exchange is at most
``PROBE_ROUNDS`` round trips and a lost store is refilled in two (a root
probe, then one pull); the message shapes are in README's "Wire format".
An exchange ends with its last reply, or aborts when an RPC times out; a
crash drops its pending RPCs with the transport, which then suppresses a
late reply as a duplicate, so recovery only forgets which peers were busy.
Payload maps are built in bucket order (digests) and ``repr`` order (keys),
so the trace is the same under every ``PYTHONHASHSEED``.

Tree shape
----------

A key lands in the leaf bucket named by the top ``TREE_FANOUT_BITS x
LEAF_LEVEL`` bits of its 64-bit ``stable_digest``; every interior level
keeps one bucket per ``TREE_FANOUT_BITS``-bit prefix.  Bucket digests are
the XOR of their members' entry digests (an entry digest hashes the key's
canonical bytes with a structural fold of its lattice value), which makes
every update O(tree depth): XOR the old entry digest out of, and the new one
into, each ancestor bucket.  XOR is commutative and content-pure, so a
bucket digest is a pure function of the store's contents — never of
insertion order, iteration order or ``PYTHONHASHSEED`` — which is the chaos
harness's determinism contract for anything that feeds network payloads.

Each interior level is a flat list with one int per bucket (1, 16, 256
and 4,096 of them), and an empty bucket holds 0: "no keys in range",
"members cancelled out" and "range never touched" are the same observable
state on both sides of an exchange.  A bucket outside a level's range,
negative ones included, reads as empty too.

What one update costs
---------------------

Every replica of every shard feeds every store write through
:meth:`DigestTree.update`, so an 80k-key preload at replication 3 is 240k
calls and the tree is most of a KVS's set-up.  The replicas of a key store
one shared, immutable value object, so the entry is hashed once per write,
not once per replica: a tree that hashes a lattice value's entry writes
the key and the entry's int into the value (``Lattice._tree_key`` /
``_tree_entry``), and a tree that then enters the same object under the
same key — the same key object, or an equal ``str`` — takes that int as
it is.  Any other key, ``1`` for a value entered under ``True`` say, is
hashed afresh: equal keys of different types encode differently.  An
entry hashed afresh costs one key encoding (``stable_key_bytes``); one
8-byte ``blake2b`` over those bytes and the value's structural fold (the
fold ``payload_digest`` hashes, never its hex digest); and — only for a
key the tree has not held — the key's 64-bit ``stable_digest`` from those
bytes (``encoded_digest``).  Both are the interpreter's builtin
``blake2b`` (``_blake2``), so no process loads OpenSSL.  A changed entry
XORs into the four interior levels, one ``^=`` into a list slot per
level, unrolled.  At ``kvs_geo_mixed``'s set-up (seed 7) 160,000 of the
240,000 updates take the value's entry and fold nothing.

What one entry costs
--------------------

A key costs the tree one dict slot and one int: ``key -> leaf << 64 |
entry digest``, the leaf riding free in the int (80 bits take the same
three 30-bit digits as 64).  The int is the one the value remembers, so
the replicas holding one value share it: a replicated write allocates one
entry int, not one per replica.  At 65,536 leaves a store of tens of
thousands of keys puts about one key in each, so a leaf dict or a
per-leaf member list would cost as much again per key; instead the leaf
level and every bucket's members are read off the entries.  A leaf or
members read is one pass over them that answers every bucket one probe
handler asks about.  Only an exchange's last two probes and the buckets it
settles by keys read entries, so the passes are few: ``kvs_churn_repair
--seconds 10`` at seed 7 makes 817 of them over stores of about 240 keys,
where one-bucket reads would make 1,887, and the other three e2e workloads
read no leaf.
"""

from __future__ import annotations

from _blake2 import blake2b
from typing import Any, Callable, Hashable, Iterable

from repro.cluster.network import Message
from repro.cluster.node import Node
from repro.cluster.transport import digest_entries, fold_payload
from repro.lattices.base import Lattice
from repro.storage.ring import encoded_digest, stable_digest, stable_key_bytes

__all__ = [
    "AntiEntropy",
    "DigestTree",
    "LEAF_LEVEL",
    "PROBE_ROUNDS",
    "TREE_FANOUT",
]

#: Children per interior bucket (2**TREE_FANOUT_BITS).
TREE_FANOUT_BITS = 4
TREE_FANOUT = 1 << TREE_FANOUT_BITS

#: The leaf level of the tree (root is level 0), i.e. the tree's depth.
#: 16**4 = 65536 leaf buckets: ~1 key per leaf at the 50k-key stores the
#: roadmap targets and ~15 at 1M, so a leaf summary stays O(small).
LEAF_LEVEL = 4

#: Worst-case request/reply round trips one reconciliation needs: one probe
#: per level (root included) plus the chain's one final pull.  The
#: bounded-staleness horizon is derived from this (see
#: ``repro.chaos.checkers.staleness_bound``).
PROBE_ROUNDS = LEAF_LEVEL + 2

_KEY_DIGEST_BITS = 64
#: ``key_digest >> _LEAF_SHIFT`` is the key's leaf.
_LEAF_SHIFT = _KEY_DIGEST_BITS - TREE_FANOUT_BITS * LEAF_LEVEL
#: ``leaf >> _LEVEL_SHIFTS[level]`` is the leaf's bucket at ``level``.
_LEVEL_SHIFTS = tuple(TREE_FANOUT_BITS * (LEAF_LEVEL - level)
                      for level in range(LEAF_LEVEL + 1))
#: An entry is ``leaf << _ENTRY_BITS | entry digest``.
_ENTRY_BITS = 64
_ENTRY_MASK = (1 << _ENTRY_BITS) - 1
#: Levels 1-3's shifts, for ``_apply``'s unrolled XOR (level 0 is one
#: bucket; the unpacking fails at import if ``LEAF_LEVEL`` is not 4).
_SHIFT_1, _SHIFT_2, _SHIFT_3 = _LEVEL_SHIFTS[1:LEAF_LEVEL]
#: ``update``'s stand-in for a value no tree has entered (``None`` is a key).
_NOT_ENTERED = object()


def _entry(key: Hashable, value: Any, old: int | None) -> int:
    """``key``'s entry for ``value``, hashed from scratch: ``leaf << 64 |
    entry digest``.  The leaf comes from ``old``, the key's current entry,
    when there is one; otherwise from the key's ``stable_digest``."""
    key_bytes = stable_key_bytes(key)
    hasher = blake2b(key_bytes, digest_size=8)
    fold_payload(value, hasher)
    if old is None:
        leaf = encoded_digest(key_bytes) >> _LEAF_SHIFT
    else:
        leaf = old >> _ENTRY_BITS
    return leaf << _ENTRY_BITS | int.from_bytes(hasher.digest(), "big")


class DigestTree:
    """An incrementally-maintained hash tree over one replica's store.

    ``update``/``remove`` cost one list-slot XOR per interior level;
    ``update`` of a value no tree has entered under the key adds one key
    encoding, at most one key digest and one hash over the key and the
    value's fold (the module text has the memo that skips them).  A key's
    *entry digest* is that 64-bit hash: a pure function of the key's
    canonical bytes and the value's content, equal under every
    ``PYTHONHASHSEED`` and changed by any lattice growth.  Interior
    buckets are kept; a leaf, and any bucket's members, are read off the
    entries (``members`` sorts them).  The tree is always an exact function
    of the entries it was fed, so two trees built from equal stores — in
    any order, under any hash seed — are identical level by level and hold
    the same keys in every leaf.
    """

    __slots__ = ("_levels", "_entries")

    def __init__(self) -> None:
        # One list of ``TREE_FANOUT ** level`` bucket digests per interior
        # level, root (level 0) first.  A bucket's digest is the XOR of its
        # members' entry digests; 0 is empty.
        self._levels: list[list[int]] = [[0] * (TREE_FANOUT ** level)
                                         for level in range(LEAF_LEVEL)]
        #: key -> ``leaf << 64 | entry digest``: the leaf locates the key's
        #: ancestors, the digest is XORed back out of them on a change.
        self._entries: dict[Hashable, int] = {}

    # -- bucket arithmetic -------------------------------------------------------

    @staticmethod
    def bucket_of(key_digest: int, level: int) -> int:
        """The bucket holding ``key_digest`` at ``level`` (root: always 0)."""
        return key_digest >> _LEAF_SHIFT >> _LEVEL_SHIFTS[level]

    @staticmethod
    def leaf_bucket(key: Hashable) -> int:
        return stable_digest(key) >> _LEAF_SHIFT

    # -- maintenance -------------------------------------------------------------

    def _apply(self, leaf: int, delta: int) -> None:
        """XOR ``delta`` into every interior ancestor of ``leaf``, one
        ``^=`` per level (the leaf level keeps no list)."""
        root, level1, level2, level3 = self._levels
        root[0] ^= delta
        level1[leaf >> _SHIFT_1] ^= delta
        level2[leaf >> _SHIFT_2] ^= delta
        level3[leaf >> _SHIFT_3] ^= delta

    def update(self, key: Hashable, value: Any) -> None:
        """Record ``key``'s (new) value; O(depth) on top of one entry hash,
        or none when ``value`` was already entered under this key."""
        old = self._entries.get(key)
        entered = getattr(value, "_tree_key", _NOT_ENTERED)
        if entered is key or (type(key) is str and type(entered) is str
                              and entered == key):
            entry = value._tree_entry
        else:
            entry = _entry(key, value, old)
            # Only a lattice value has the slots and the immutability that
            # make the memo safe; anything else is hashed every time.
            if isinstance(value, Lattice):
                value._tree_key = key
                value._tree_entry = entry
        if old is None:
            delta = entry & _ENTRY_MASK
        else:
            # Same key, same leaf: the leaf bits cancel.
            delta = old ^ entry
            if not delta:
                return
        self._entries[key] = entry
        self._apply(entry >> _ENTRY_BITS, delta)

    def remove(self, key: Hashable) -> None:
        old = self._entries.pop(key, None)
        if old is None:
            return
        self._apply(old >> _ENTRY_BITS, old & _ENTRY_MASK)

    def clear(self) -> None:
        for level in self._levels:
            level[:] = [0] * len(level)
        self._entries.clear()

    # -- reads (all pure; payload builders must keep sorted order) ----------------
    # Each read answers every bucket one probe handler asks about, so a
    # handler that reads the leaf level passes over the entries once.

    def root(self) -> int:
        return self._levels[0][0]

    def digests(self, level: int, buckets: Iterable[int]) -> dict[int, int]:
        """Each bucket's digest at ``level`` (0 when empty or out of the
        level's range), in ``buckets`` order."""
        if level < LEAF_LEVEL:
            held = self._levels[level]
            size = len(held)
            return {bucket: held[bucket] if 0 <= bucket < size else 0
                    for bucket in buckets}
        digests = dict.fromkeys(buckets, 0)
        for entry in self._entries.values():
            leaf = entry >> _ENTRY_BITS
            if leaf in digests:
                digests[leaf] ^= entry & _ENTRY_MASK
        return digests

    def child_digests(self, level: int,
                      buckets: Iterable[int]) -> dict[int, dict[int, int]]:
        """Each bucket's non-empty children at ``level + 1``, in bucket order."""
        if level + 1 < LEAF_LEVEL:
            below = self._levels[level + 1]
            size = len(below)
            children = {}
            for bucket in buckets:
                first = bucket << TREE_FANOUT_BITS
                span = below[first:first + TREE_FANOUT] if 0 <= first < size else ()
                children[bucket] = {child: digest for child, digest
                                    in enumerate(span, first) if digest}
            return children
        children: dict[int, dict[int, int]] = {bucket: {} for bucket in buckets}
        for entry in self._entries.values():
            leaf = entry >> _ENTRY_BITS
            found = children.get(leaf >> TREE_FANOUT_BITS)
            if found is not None:
                found[leaf] = found.get(leaf, 0) ^ (entry & _ENTRY_MASK)
        return {bucket: {leaf: found[leaf] for leaf in sorted(found) if found[leaf]}
                for bucket, found in children.items()}

    def members(self, level: int, buckets: Iterable[int]
                ) -> dict[int, dict[Hashable, int]]:
        """Each bucket's {key: entry digest} map at ``level``, built in
        sorted-key order: one pass over the entries at any level."""
        shift = _ENTRY_BITS + _LEVEL_SHIFTS[level]
        grouped: dict[int, list[Hashable]] = {bucket: [] for bucket in buckets}
        for key, entry in self._entries.items():
            keys = grouped.get(entry >> shift)
            if keys is not None:
                keys.append(key)
        entries = self._entries
        return {bucket: {key: entries[key] & _ENTRY_MASK
                         for key in sorted(keys, key=repr)}
                for bucket, keys in grouped.items()}

    def __len__(self) -> int:
        return len(self._entries)

    # -- verification ------------------------------------------------------------

    @classmethod
    def from_store(cls, store: dict[Hashable, Any]) -> "DigestTree":
        """A from-scratch tree over ``store`` — the purity oracle.

        An incrementally-maintained tree must equal this rebuild at all
        times; the chaos byte-budget checker asserts it after every run.
        """
        tree = cls()
        for key in sorted(store, key=repr):
            # Every entry from scratch: the memo ``update`` reuses is what
            # this oracle checks, so it is never read (nor written) here.
            entry = tree._entries[key] = _entry(key, store[key], None)
            tree._apply(entry >> _ENTRY_BITS, entry & _ENTRY_MASK)
        return tree

    def __eq__(self, other: object) -> bool:
        """Equal levels and entries.  An entry carries its key's leaf, so
        equal entries put the same keys in every leaf."""
        if not isinstance(other, DigestTree):
            return NotImplemented
        return self._levels == other._levels and self._entries == other._entries

    def __repr__(self) -> str:
        return (f"DigestTree(entries={len(self._entries)}, "
                f"root={self.root():#018x})")


class AntiEntropy:
    """One replica's digest exchanges with its peers, both sides of them.

    The replica hands over its ``tree``, a ``value_of(key)`` lookup and
    ``take(key, value)``, the merge of a peer's entry, and calls
    :meth:`start` on its cadence.  ``in_flight`` holds the peers this
    replica has an exchange open with.
    """

    __slots__ = ("node", "tree", "value_of", "take", "in_flight")

    def __init__(self, node: Node, tree: DigestTree,
                 value_of: Callable[[Hashable], Any],
                 take: Callable[[Hashable, Any], None]) -> None:
        self.node = node
        self.tree = tree
        self.value_of = value_of
        self.take = take
        self.in_flight: set[Hashable] = set()
        node.on("ae_probe", self._on_probe)
        node.on("ae_pull", self._on_pull)

    def start(self, peer: Hashable) -> None:
        """Open an exchange with ``peer`` unless one is still open."""
        if peer in self.in_flight:
            # The previous exchange is still recursing (slow link); let it
            # finish rather than racing two against one peer.
            return
        self.in_flight.add(peer)
        self.node.network.metrics.increment("kvs.antientropy.rounds")
        self._probe(peer, 0, {0: self.tree.root()}, [])

    def _request(self, peer: Hashable, mailbox: str, payload: dict,
                 count: int, on_reply: Callable[[Any], None]) -> None:
        self.node.request(peer, mailbox, payload, entries=digest_entries(count),
                          on_reply=on_reply,
                          on_timeout=lambda: self._end(peer, aborted=True))

    def _probe(self, peer: Hashable, level: int, buckets: dict[int, int],
               pull: list[Hashable]) -> None:
        # ``pull`` collects the keys to fetch on the way down; the chain's
        # one ``ae_pull`` fetches them all when no bucket is left to probe.
        self._request(peer, "ae_probe", {"level": level, "buckets": buckets},
                      len(buckets),
                      lambda reply: self._on_probe_reply(peer, reply, pull))

    def _end(self, peer: Hashable, aborted: bool = False) -> None:
        # An aborted exchange never wedges the cadence: the next one starts
        # over from the root.
        self.in_flight.discard(peer)
        if aborted:
            self.node.network.metrics.increment("kvs.antientropy.aborted")

    def _on_probe_reply(self, peer: Hashable, payload: dict,
                        pull: list[Hashable]) -> None:
        diff, level = payload["diff"], payload["level"]
        if not diff and level == 0:
            # Root digests matched: the replicas are provably identical and
            # this round cost one digest each way.
            self.node.network.metrics.increment(
                "kvs.antientropy.converged_rounds")
        children = payload.get("children", {})
        # A bucket with no children here was answered by its keys (a leaf,
        # or one this side holds empty) or is empty on the peer's side:
        # either way its keys settle it now.
        settle = [bucket for bucket in diff if not children.get(bucket)]
        if settle:
            self._reconcile(peer, level, settle, payload.get("keys", {}), pull)
        # Only children whose digests disagree are probed, so a bucket
        # diverging in one child recurses into exactly that child.
        descend = [bucket for bucket in diff if children.get(bucket)]
        probe = {}
        if descend:
            mine = self.tree.child_digests(level, descend)
            for bucket in descend:
                own, other = mine[bucket], children[bucket]
                for child in sorted(own.keys() | other.keys()):
                    if own.get(child, 0) != other.get(child, 0):
                        probe[child] = own.get(child, 0)
        if probe:
            self._probe(peer, level + 1, probe, pull)
        elif pull:
            self._request(peer, "ae_pull", {"keys": pull}, len(pull),
                          lambda reply: self._on_pull_reply(peer, reply))
        else:
            # Converged, settled by pushes alone, or concurrent gossip
            # healed the mismatch between probes.
            self._end(peer)

    def _reconcile(self, peer: Hashable, level: int, buckets: list[int],
                   theirs: dict[int, dict[Hashable, int]],
                   pull: list[Hashable]) -> None:
        """Push the keys of ``buckets`` the peer lacks or holds differently
        now; add those this side lacks or holds differently to ``pull``."""
        push: dict[Hashable, Any] = {}
        mine = self.tree.members(level, buckets)
        for bucket in buckets:
            own, other = mine[bucket], theirs.get(bucket, {})
            # A key held differently on both sides is pushed and pulled:
            # each side may hold lattice state the other lacks.
            for key, digest in own.items():
                if other.get(key) != digest:
                    push[key] = self.value_of(key)
            pull.extend(key for key, digest in other.items()
                        if own.get(key) != digest)
        if push:
            self.node.network.metrics.increment("kvs.antientropy.repair_entries",
                                                len(push))
            self.node.queue(peer, "gossip", {"entries": push}, entries=len(push))

    def _on_pull_reply(self, peer: Hashable, payload: dict) -> None:
        entries = payload["entries"]
        self.node.network.metrics.increment("kvs.antientropy.repair_entries",
                                            len(entries))
        for key, value in entries.items():
            self.take(key, value)
        self._end(peer)

    def _on_probe(self, message: Message) -> None:
        level, theirs = message.payload["level"], message.payload["buckets"]
        tree = self.tree
        mine = tree.digests(level, theirs)
        diff = [bucket for bucket, digest in theirs.items() if mine[bucket] != digest]
        reply: dict[str, Any] = {"level": level, "diff": diff}
        count = len(diff)
        # A leaf, or a bucket the prober holds empty, is answered by its
        # keys; any other differing bucket by its children's digests.
        if level < LEAF_LEVEL:
            settle = [bucket for bucket in diff if not theirs[bucket]]
            descend = [bucket for bucket in diff if theirs[bucket]]
            if descend:
                below = reply["children"] = tree.child_digests(level, descend)
                count += sum(map(len, below.values()))
        else:
            settle = diff
        if settle:
            keys = reply["keys"] = tree.members(level, settle)
            count += sum(map(len, keys.values()))
        self.node.reply(message, "ae_probe_reply", reply,
                        entries=digest_entries(count))

    def _on_pull(self, message: Message) -> None:
        entries = {key: value for key in message.payload["keys"]
                   if (value := self.value_of(key)) is not None}
        self.node.reply(message, "ae_pull_reply", {"entries": entries},
                        entries=len(entries))
