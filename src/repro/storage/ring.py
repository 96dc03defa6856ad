"""A deterministic consistent-hash ring for shard routing.

Coordination-free routing only works if every process, on every machine,
under any ``PYTHONHASHSEED``, maps a key to the same shard — otherwise two
clients of the same cluster disagree about where a key lives and the KVS
silently partitions.  Python's builtin ``hash`` is salted per process, so
this module derives routing tokens from ``blake2b`` over a canonical byte
encoding of the key instead.  A digest is a pure function of those bytes,
computed on every call: the module keeps no process-wide state, so what a
process hashed earlier changes neither a digest nor the memory it holds.

The ring places ``vnodes`` virtual nodes (tokens) per physical node on a
64-bit circle; a key is owned by the first virtual node clockwise of the
key's digest.  Virtual nodes smooth the load distribution, and — the point
of consistent hashing — adding or removing a node only moves the keys that
fall between the new node's tokens and their predecessors, roughly
``1/(n+1)`` of the keyspace rather than almost all of it.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable, Sequence

__all__ = [
    "HashRing",
    "encoded_digest",
    "stable_digest",
    "stable_key_bytes",
]

_DIGEST_BYTES = 8  # 64-bit tokens: collision-free in practice, cheap to compare


def stable_key_bytes(key: Hashable) -> bytes:
    """A canonical byte encoding of ``key``, identical across processes.

    Supports the hashable builtins (str, bytes, int, bool, float, None) and
    recursively tuples/frozensets of them.  Each encoding is prefixed with a
    type tag so e.g. ``1``, ``1.0``, ``True`` and ``"1"`` occupy distinct
    ring positions.  Raises :class:`TypeError` for types whose ``repr`` is
    process-dependent (arbitrary objects embed memory addresses).
    """
    if type(key) is str:  # the common key, ahead of the isinstance ladder
        return b"s" + key.encode("utf-8")
    if isinstance(key, bool):  # bool is an int subclass; tag it first
        return b"t" if key else b"f"
    if isinstance(key, bytes):
        return b"y" + key
    if isinstance(key, str):
        return b"s" + key.encode("utf-8")
    if isinstance(key, int):
        return b"i" + str(key).encode("ascii")
    if isinstance(key, float):
        return b"d" + repr(key).encode("ascii")
    if key is None:
        return b"n"
    if isinstance(key, tuple):
        parts = [stable_key_bytes(part) for part in key]
        return b"(" + b"".join(len(p).to_bytes(4, "big") + p for p in parts) + b")"
    if isinstance(key, frozenset):
        parts = sorted(stable_key_bytes(part) for part in key)
        return b"{" + b"".join(len(p).to_bytes(4, "big") + p for p in parts) + b"}"
    raise TypeError(
        f"cannot derive a stable routing digest for {type(key).__name__}: {key!r}"
    )


def digest_cache_stats() -> dict[str, int]:
    """Always ``{"hits": 0, "misses": 0}``: there is no digest memo.

    Kept only for the e2e benchmark's ``storage.ring.digest_cache_hit_rate``
    metric, which now reads null; ROADMAP 1(d) deletes both together.
    """
    return {"hits": 0, "misses": 0}


def stable_digest(key: Hashable) -> int:
    """A 64-bit digest of ``key`` that is identical across processes."""
    return encoded_digest(stable_key_bytes(key))


def encoded_digest(payload: bytes) -> int:
    """:func:`stable_digest` of an already-encoded key (the bytes of
    :func:`stable_key_bytes`) — for a caller that needs the key's bytes as
    well and should not encode it twice."""
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).digest(), "big"
    )


class HashRing:
    """Consistent hashing with virtual nodes over stable digests."""

    __slots__ = ("vnodes", "_entries", "_tokens", "_members")

    def __init__(self, nodes: Iterable[Hashable] = (), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        # Entries are (token, canonical node bytes, node), kept sorted; the
        # byte encoding breaks the (astronomically unlikely) token ties
        # deterministically.  ``_tokens`` mirrors the token column for bisect.
        self._entries: list[tuple[int, bytes, Hashable]] = []
        self._tokens: list[int] = []
        self._members: dict[Hashable, bytes] = {}
        for node in nodes:
            self.add_node(node)

    # -- membership -------------------------------------------------------------

    def _node_tokens(self, encoded: bytes) -> list[int]:
        """The node's ``vnodes`` ring tokens, 8 per blake2 call for speed."""
        tokens: list[int] = []
        chunk = 0
        while len(tokens) < self.vnodes:
            width = min(self.vnodes - len(tokens), 8)
            digest = hashlib.blake2b(
                b"vnode:" + str(chunk).encode("ascii") + b":" + encoded,
                digest_size=_DIGEST_BYTES * width,
            ).digest()
            for offset in range(0, len(digest), _DIGEST_BYTES):
                tokens.append(
                    int.from_bytes(digest[offset:offset + _DIGEST_BYTES], "big")
                )
            chunk += 1
        return tokens

    def add_node(self, node: Hashable) -> None:
        """Add a physical node (``vnodes`` tokens) to the ring."""
        if node in self._members:
            raise ValueError(f"node {node!r} is already on the ring")
        encoded = stable_key_bytes(node)
        self._members[node] = encoded
        self._entries.extend(
            (token, encoded, node) for token in self._node_tokens(encoded)
        )
        self._entries.sort()
        self._tokens = [entry[0] for entry in self._entries]

    def remove_node(self, node: Hashable) -> None:
        """Remove a physical node and all its tokens from the ring."""
        if node not in self._members:
            raise KeyError(f"node {node!r} is not on the ring")
        del self._members[node]
        self._entries = [entry for entry in self._entries if entry[2] != node]
        self._tokens = [entry[0] for entry in self._entries]

    def nodes(self) -> list[Hashable]:
        return list(self._members)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._members

    def __len__(self) -> int:
        return len(self._members)

    # -- routing ----------------------------------------------------------------

    def node_for(self, key: Hashable) -> Hashable:
        """The node owning ``key``: first virtual node clockwise of its digest."""
        if not self._entries:
            raise LookupError("cannot route on an empty ring")
        index = bisect.bisect_right(self._tokens, stable_digest(key))
        return self._entries[index % len(self._entries)][2]

    def nodes_for(self, key: Hashable, count: int) -> list[Hashable]:
        """The first ``count`` *distinct* nodes clockwise of ``key``'s digest.

        The walk order is the ring's preference list for ``key`` — stable
        under membership changes, which makes it the right candidate order
        for replica placement as well as shard routing.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if not self._entries:
            raise LookupError("cannot route on an empty ring")
        if not count:
            return []
        start = bisect.bisect_right(self._tokens, stable_digest(key))
        chosen: list[Hashable] = []
        seen: set[Hashable] = set()
        for offset in range(len(self._entries)):
            node = self._entries[(start + offset) % len(self._entries)][2]
            if node not in seen:
                seen.add(node)
                chosen.append(node)
                if len(chosen) == count:
                    break
        return chosen

    # -- introspection ----------------------------------------------------------

    def distribution(self, keys: Sequence[Hashable]) -> dict[Hashable, int]:
        """How many of ``keys`` each node owns (for balance checks/benchmarks)."""
        counts = {node: 0 for node in self._members}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts

    def __repr__(self) -> str:
        return f"HashRing(nodes={len(self._members)}, vnodes={self.vnodes})"
