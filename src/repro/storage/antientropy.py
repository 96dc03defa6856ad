"""Merkle-style digest trees for O(divergence) anti-entropy.

The delta-gossip protocol's loss backstop used to be a periodic *full-store*
sync: every ``full_sync_every``-th gossip round to every peer shipped the
whole store, so steady-state repair traffic grew O(store x peers) even when
replicas were already identical.  This module replaces that with digest-tree
reconciliation: each :class:`~repro.storage.kvs.ShardNode` maintains a
:class:`DigestTree` over its store — a fixed-depth hash tree bucketed by the
same canonical ``stable_digest`` ranges the :class:`~repro.storage.ring.HashRing`
routes by — and an anti-entropy round exchanges the *root* digest (O(1) when
converged), recursing only into mismatching ranges and shipping only the
keys that actually differ.

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

Empty buckets are *absent* (digest 0): a bucket whose members cancel out of
the dict entirely, so "no keys in range" and "range never touched" are the
same observable state on both sides of an exchange.

What one update costs
---------------------

Every replica of every shard feeds every store write through
:meth:`DigestTree.update`, so an 80k-key preload at replication 3 is 240k
calls and the tree is most of a KVS's set-up.  One update therefore does
each piece of work once: it encodes the key once (``stable_key_bytes``);
hashes the entry once, one 8-byte ``blake2b`` over those bytes and the
value's structural fold (the fold ``payload_digest`` hashes, never its hex
digest); and — only for a key the tree has not held — computes the key's
64-bit ``stable_digest`` from those bytes once (``encoded_digest``).  A
changed entry XORs through the four interior levels by precomputed shifts.

What one entry costs
--------------------

A key costs the tree one dict slot and one int: ``key -> leaf << 64 |
entry digest``, the leaf riding free in the int (80 bits take the same
three 30-bit digits as 64).  At 65,536 leaves a store of tens of thousands
of keys puts about one key in each, so a leaf dict or a per-leaf member
list would cost as much again per key; instead the leaf level is read off
the entries.  A leaf read is one pass over them that answers every bucket
one probe handler asks about.  Only an exchange's last two probes read
leaves, so the passes are few: ``kvs_churn_repair --seconds 10`` at seed 7
makes 901 of them over stores of about 220 keys, where one-bucket reads
would make 58,598, and the other three e2e workloads read no leaf.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from repro.cluster.transport import fold_payload
from repro.storage.ring import encoded_digest, stable_digest, stable_key_bytes

__all__ = [
    "AntiEntropySession",
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
#: per level (root included) plus the final leaf pull.  The bounded-staleness
#: horizon is derived from this (see ``repro.chaos.checkers.staleness_bound``).
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


class DigestTree:
    """An incrementally-maintained hash tree over one replica's store.

    ``update``/``remove`` cost one key encoding, at most one key digest
    and O(``LEAF_LEVEL``) dict operations per call, plus — for ``update`` —
    one hash over the key and the value's fold.  A key's *entry digest* is
    that 64-bit hash: a pure function of the key's canonical bytes and the
    value's content, equal under every ``PYTHONHASHSEED`` and changed by
    any lattice growth.  Interior buckets are kept; a leaf is read off the
    entries it holds (``leaf_summaries`` sorts them).  The tree is always an
    exact function of the entries it was fed, so two trees built from equal
    stores — in any order, under any hash seed — are identical level by
    level and hold the same keys in every leaf.
    """

    __slots__ = ("_levels", "_entries")

    def __init__(self) -> None:
        # One sparse {bucket: digest} dict per interior level, root (level
        # 0) first.  A bucket's digest is the XOR of its members' entry
        # digests; buckets that XOR to zero are removed, so absent == empty.
        self._levels: list[dict[int, int]] = [{} for _ in range(LEAF_LEVEL)]
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
        """XOR ``delta`` through every interior ancestor of ``leaf`` (the
        leaf level keeps no dict, so the ``zip`` stops above it)."""
        for buckets, shift in zip(self._levels, _LEVEL_SHIFTS):
            bucket = leaf >> shift
            digest = buckets.get(bucket, 0) ^ delta
            if digest:
                buckets[bucket] = digest
            else:
                buckets.pop(bucket, None)

    def update(self, key: Hashable, value: Any) -> None:
        """Record ``key``'s (new) value; O(depth) on top of one entry hash."""
        key_bytes = stable_key_bytes(key)
        hasher = hashlib.blake2b(key_bytes, digest_size=8)
        fold_payload(value, hasher)
        new = int.from_bytes(hasher.digest(), "big")
        old = self._entries.get(key)
        if old is None:
            leaf = encoded_digest(key_bytes) >> _LEAF_SHIFT
            delta = new
        else:
            leaf = old >> _ENTRY_BITS
            delta = (old & _ENTRY_MASK) ^ new
            if not delta:
                return
        self._entries[key] = leaf << _ENTRY_BITS | new
        self._apply(leaf, delta)

    def remove(self, key: Hashable) -> None:
        old = self._entries.pop(key, None)
        if old is None:
            return
        self._apply(old >> _ENTRY_BITS, old & _ENTRY_MASK)

    def clear(self) -> None:
        for level in self._levels:
            level.clear()
        self._entries.clear()

    # -- reads (all pure; payload builders must keep sorted order) ----------------
    # Each read answers every bucket one probe handler asks about, so a
    # handler that reads the leaf level passes over the entries once.

    def root(self) -> int:
        return self._levels[0].get(0, 0)

    def digests(self, level: int, buckets: Iterable[int]) -> dict[int, int]:
        """Each bucket's digest at ``level`` (0 when empty), in ``buckets`` order."""
        if level < LEAF_LEVEL:
            held = self._levels[level]
            return {bucket: held.get(bucket, 0) for bucket in buckets}
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
            return {bucket: {child: below[child]
                             for child in range(bucket << TREE_FANOUT_BITS,
                                                (bucket + 1) << TREE_FANOUT_BITS)
                             if child in below}
                    for bucket in buckets}
        children: dict[int, dict[int, int]] = {bucket: {} for bucket in buckets}
        for entry in self._entries.values():
            leaf = entry >> _ENTRY_BITS
            found = children.get(leaf >> TREE_FANOUT_BITS)
            if found is not None:
                found[leaf] = found.get(leaf, 0) ^ (entry & _ENTRY_MASK)
        return {bucket: {leaf: found[leaf] for leaf in sorted(found) if found[leaf]}
                for bucket, found in children.items()}

    def leaf_summaries(self, buckets: Iterable[int]
                       ) -> dict[int, dict[Hashable, int]]:
        """Each leaf's {key: entry digest} map, built in sorted-key order."""
        members: dict[int, list[Hashable]] = {bucket: [] for bucket in buckets}
        for key, entry in self._entries.items():
            keys = members.get(entry >> _ENTRY_BITS)
            if keys is not None:
                keys.append(key)
        entries = self._entries
        return {bucket: {key: entries[key] & _ENTRY_MASK
                         for key in sorted(keys, key=repr)}
                for bucket, keys in members.items()}

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
            tree.update(key, store[key])
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


@dataclass(slots=True)
class AntiEntropySession:
    """One in-flight digest reconciliation with one peer (initiator side).

    A :class:`~repro.storage.kvs.ShardNode` keeps at most one session per
    peer; the cadence tick that would start a second one skips instead.  The
    session dies with its RPC (timeout aborts it) and with its node (crash
    clears pending RPCs; ``recover`` drops every session), so a dead
    exchange can never wedge the cadence — the next anti-entropy round
    simply starts over from the root.
    """

    peer: Hashable
    started_at: float
    level: int = 0
    #: Diagnostic trail: probes answered so far (root probe counts).
    probes: int = field(default=1)
