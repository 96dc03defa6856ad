"""An asynchronous KVS client with session guarantees.

The client node issues ``put``/``get`` messages over the simulated network
(unlike :class:`~repro.storage.kvs.LatticeKVS`'s direct convenience API) and
layers two session guarantees on top of eventual consistency — the
client-centric, Hydrocache-style encapsulation the paper's consistency facet
describes:

* *read-your-writes*: the client's own writes are cached and merged into
  every read reply, so a read can never miss a write this session issued;
* *monotonic reads*: every read reply is also merged with the join of all
  values previously read for that key, so round-robin routing across
  unevenly-converged replicas can never make a later read observe *less*
  than an earlier one.

Both caches are lattice joins, so they never invent state — they only keep
the session's observed frontier from regressing.

Puts and gets are transport RPCs: a lost request or reply is retried by the
shared :class:`~repro.cluster.transport.Transport` runtime (capped, with
duplicate suppression replica-side), so a client session survives transient
loss without any protocol-level machinery here.  Both operations are
lattice-idempotent anyway — the retries are a latency optimization, never a
correctness risk.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Hashable, Optional

from repro.cluster.network import Message
from repro.cluster.node import Node
from repro.cluster.transport import DEDUP_WINDOW
from repro.lattices.base import Lattice


class KVSClient(Node):
    """A client of the lattice KVS with a read-your-writes session cache."""

    def __init__(self, node_id, simulator, network, kvs, domain="client") -> None:
        super().__init__(node_id, simulator, network, domain)
        self.kvs = kvs
        self.session_writes: dict[Hashable, Lattice] = {}
        self.session_reads: dict[Hashable, Lattice] = {}
        self.pending_gets: dict[int, Callable[[Optional[Lattice]], None]] = {}
        #: Completions: only the newest ``DEDUP_WINDOW`` (the transport's
        #: memo size) per table, not one entry per op ever issued.  Each
        #: table keeps its insertion order in a deque, so evicting the
        #: oldest never scans a drained dict's dead slots.  The oldest is
        #: evicted *after* the insert, so a subclass reading
        #: ``completed_gets[id]`` right after the reply handler always
        #: finds it.
        self.completed_gets: dict[int, Optional[Lattice]] = {}
        self._completed_order: deque[int] = deque()
        self.acked_puts: set[int] = set()
        self._acked_order: deque[int] = deque()
        #: Session epoch.  A crash+lose-state recovery is a *new* session
        #: under a reused node id, so the counter bumps in ``reset_state``
        #: and session-guarantee checkers judge each incarnation separately.
        self.incarnation = 0
        self._ids = itertools.count()
        self.on("get_reply", self._on_get_reply)
        self.on("put_ack", self._on_put_ack)

    # -- operations ----------------------------------------------------------------

    def put(self, key: Hashable, value: Lattice) -> int:
        """Asynchronously merge ``value`` into ``key``; returns a request id."""
        request_id = next(self._ids)
        writes = self.session_writes
        current = writes.get(key)
        writes[key] = value if current is None else current.merge(value)
        replica = self.kvs.pick_replica(key)
        self.request(replica.node_id, "put",
                     {"key": key, "value": value, "request_id": request_id},
                     entries=1)
        return request_id

    def get(self, key: Hashable,
            callback: Optional[Callable[[Optional[Lattice]], None]] = None) -> int:
        """Asynchronously read ``key``; the reply is merged with session writes.

        ``callback`` gets the merged value.  If the RPC gives up (every
        attempt timed out) it is released uncalled: no answer is not
        "key absent".
        """
        request_id = next(self._ids)
        on_timeout = None
        if callback is not None:
            self.pending_gets[request_id] = callback
            on_timeout = partial(self.pending_gets.pop, request_id, None)
        replica = self.kvs.pick_replica(key)
        self.request(replica.node_id, "get",
                     {"key": key, "request_id": request_id},
                     on_timeout=on_timeout)
        return request_id

    # -- replies -------------------------------------------------------------------

    def _on_get_reply(self, message: Message) -> None:
        payload = message.payload
        request_id, key, value = payload["request_id"], payload["key"], payload["value"]
        own = self.session_writes.get(key)
        if own is not None:
            value = own if value is None else value.merge(own)
        reads = self.session_reads
        if value is not None:
            # The one join with what this session read before.
            current = reads.get(key)
            if current is not None:
                value = current.merge(value)
            reads[key] = value
        else:
            value = reads.get(key)
        self.completed_gets[request_id] = value
        self._completed_order.append(request_id)
        while len(self._completed_order) > DEDUP_WINDOW:
            self.completed_gets.pop(self._completed_order.popleft(), None)
        callback = self.pending_gets.pop(request_id, None)
        if callback is not None:
            callback(value)

    def _on_put_ack(self, message: Message) -> None:
        request_id = message.payload["request_id"]
        self.acked_puts.add(request_id)
        self._acked_order.append(request_id)
        while len(self._acked_order) > DEDUP_WINDOW:
            self.acked_puts.discard(self._acked_order.popleft())

    # -- failure ----------------------------------------------------------------------

    def reset_state(self) -> None:
        """Drop all session state on a lose-state recovery.

        Session guarantees are *per session*: read-your-writes and monotonic
        reads promise only that a session never loses sight of its own
        frontier.  A client that crashed and came back is a replacement
        identity — letting it inherit the dead session's caches would
        smuggle the old frontier into the new session and fabricate
        guarantees the store never made across the crash boundary.
        """
        self.session_writes = {}
        self.session_reads = {}
        self.pending_gets.clear()
        self.completed_gets.clear()
        self._completed_order.clear()
        self.acked_puts.clear()
        self._acked_order.clear()
        self.incarnation += 1

    # -- introspection ----------------------------------------------------------------

    def result_of(self, request_id: int) -> Optional[Lattice]:
        """The merged result of a recent get (``None`` once evicted)."""
        return self.completed_gets.get(request_id)

    def put_acknowledged(self, request_id: int) -> bool:
        """Whether a recent put was acked (``False`` once evicted)."""
        return request_id in self.acked_puts
