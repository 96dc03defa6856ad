"""The unified transport layer: typed sizing, batching, and a shared RPC runtime.

Every subsystem in the tree used to talk to :class:`~repro.cluster.network.Network`
directly, each with its own wire-size guess and its own ack/retry loop.  This
module is the single seam between protocol code and the network:

* **Typed sizing** — a logical message is a :class:`Parcel` that declares how
  many key/value entries its payload carries; its cost on the wire always
  comes from :func:`~repro.cluster.network.wire_size`, never from a hardcoded
  byte constant.
* **One wire form** — every network message a node emits or accepts is a
  tuple of parcels under :data:`TRANSPORT_MAILBOX`, paying
  ``WIRE_HEADER_BYTES`` once however many parcels it carries.
* **Per-destination batching** — parcels queued to the same peer within one
  event (its callback and whatever that defers) ride one network message.
  The flush is a *deferred callback* (:meth:`Simulator.defer`), never an
  event: it runs when the event that queued the parcels returns, so
  batching never delays delivery and **between two events nothing is
  queued unsent**.  Protocol cadences (gossip ticks, end-of-tick) can also
  :meth:`Transport.flush`.
* **RPC** — :meth:`Transport.request` gives request/reply with timeouts,
  capped retries and duplicate suppression on both sides; replies are
  dispatched to an ordinary reply mailbox, so protocol handlers keep their
  shape.
* **Delivery** — a transport belongs to its node and is that node's network
  endpoint: the node registers :meth:`Transport.deliver` with the network,
  and ``deliver`` checks liveness, unpacks the parcels and calls each
  mailbox handler in one pass.

Determinism contract (the chaos harness relies on it): queues are plain
lists, flush iterates destinations in sorted-``repr`` order, and no code
path iterates a set — the event trace is byte-identical under every
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import itertools
from _blake2 import blake2b
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Hashable, Optional

from repro.cluster.network import (
    _NO_COST,
    Message,
    Network,
    WIRE_ENTRY_BYTES,
    WIRE_HEADER_BYTES,
    wire_size,
)

#: The network-level mailbox of every message between nodes; its payload
#: is a tuple of parcels, and logical mailboxes live inside the parcels.
TRANSPORT_MAILBOX = "__transport__"

#: Modelled wire cost of one digest item in an anti-entropy control message
#: (an 8-byte bucket/key identifier plus an 8-byte blake2 digest).  Digest
#: payloads are far denser than key/value entries, but they are not free:
#: senders declare ``digest_entries(n)`` so the byte ledger — and, with the
#: bandwidth model on, the *time* ledger — stays honest.
DIGEST_WIRE_BYTES = 16


def digest_entries(count: int) -> int:
    """Honest entry count for a payload carrying ``count`` digest items.

    Rounds ``count * DIGEST_WIRE_BYTES`` up to whole ``WIRE_ENTRY_BYTES``
    units (minimum one for a non-empty payload), so a root-digest probe
    costs one entry while a 65536-leaf summary pays its real weight.
    """
    if count <= 0:
        return 0
    return max(1, -(-count * DIGEST_WIRE_BYTES // WIRE_ENTRY_BYTES))


@dataclass(slots=True, unsafe_hash=True)
class Parcel:
    """One typed logical message: a mailbox, a payload, and its entry count.

    ``entries`` is the number of key/value-sized units the payload carries
    (0 for pure control traffic — acks, votes, header-only requests).  It is
    the *only* size declaration a sender makes; bytes are always derived via
    :func:`wire_size`.  Nobody writes a field after construction (see
    :class:`~repro.cluster.network.Message` for why it is not ``frozen``).
    """

    mailbox: str
    payload: Any
    entries: int = 0
    rpc_id: Optional[int] = None
    rpc_kind: Optional[str] = None  # "request" | "reply" | None
    reply_to: Optional[Hashable] = None  # requester node id (requests only)


@dataclass(frozen=True, slots=True)
class RpcPolicy:
    """Timeout/retry knobs for one request."""

    timeout: float = 25.0
    max_attempts: int = 2

    @property
    def retry_allowance(self) -> float:
        """Worst extra completion delay retries can add (for latency bounds)."""
        return self.timeout * (self.max_attempts - 1)


#: Served-request memo size per node (duplicate suppression window).
DEDUP_WINDOW = 1024


@dataclass(slots=True)
class TransportConfig:
    """Per-network default transport behaviour (nodes inherit it)."""

    batching: bool = True
    rpc: RpcPolicy = field(default_factory=RpcPolicy)
    #: Runtime sanitizer: payloads handed to ``queue``/``reply`` are
    #: digested at queue time and re-digested at flush; a mismatch raises
    #: :class:`PayloadMutationError` naming the parcel.  Pure observation —
    #: event traces are byte-identical with it on or off.
    sanitize: bool = False
    #: Runtime sanitizer: reverse the transport's sorted flush order.  Any
    #: *fixed* deterministic order is contractually valid (the sort exists
    #: to kill PYTHONHASHSEED dependence, not to promise ascending order),
    #: so all invariants must survive the reversal — running a chaos sweep
    #: with this on smokes out code that latched onto one specific order
    #: (the RL004 misses static analysis cannot see).
    perturb_order: bool = False


class PayloadMutationError(RuntimeError):
    """A payload changed between ``queue()`` and its envelope's flush.

    Payloads handed to the transport are owned by it — the batch *is* the
    snapshot.  Mutating one afterwards corrupts whatever the peer receives
    (and, worse, does so as a function of event interleaving).  Raised by
    the opt-in sanitize pass (:attr:`TransportConfig.sanitize`) at the
    flush that would have shipped the stale digest.
    """


def payload_digest(payload: Any) -> str:
    """A structural digest of ``payload``, stable under no mutation.

    Containers are folded recursively — dicts/sets in sorted-``repr``
    order, so the digest itself never depends on ``PYTHONHASHSEED`` —
    dataclasses by field, plain objects by their ``__dict__``; leaves fall
    back to ``repr``.  Two digests of an *unchanged* object are equal;
    any in-place mutation of a folded container or attribute changes it.
    """
    hasher = blake2b(digest_size=16)
    fold_payload(payload, hasher)
    return hasher.hexdigest()


def fold_payload(payload: Any, hasher: Any) -> None:
    """Feed ``payload``'s structural encoding (what :func:`payload_digest`
    hashes) into ``hasher``, for a caller that hashes more than the payload."""
    _fold_payload(payload, hasher, set())


# How a value folds is a function of its type alone — except whether a
# plain object has a ``__dict__`` — so each type is classified once.
_LEAF, _DICT, _SET, _SEQUENCE, _DATACLASS, _OBJECT, _REPR = range(7)
_LEAF_TYPES = (type(None), bool, int, float, str, bytes)
#: type -> (kind, header bytes, a dataclass's (field name, header) pairs).
_FOLD_PLANS: dict[type, tuple[int, bytes, tuple]] = {}


def _fold_plan(cls: type) -> tuple[int, bytes, tuple]:
    name = cls.__name__
    fields: tuple = ()
    if issubclass(cls, _LEAF_TYPES):
        kind, header = _LEAF, f"L{name}:".encode()
    elif issubclass(cls, dict):
        kind, header = _DICT, b"dict{"
    elif issubclass(cls, (set, frozenset)):
        kind, header = _SET, b"set{"
    elif issubclass(cls, (list, tuple)):
        kind, header = _SEQUENCE, f"{name}[".encode()
    elif dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        kind, header = _DATACLASS, f"dc:{name}(".encode()
        fields = tuple((info.name, f"{info.name}=".encode())
                       for info in dataclasses.fields(cls))
    elif (any("__dict__" in vars(klass) for klass in cls.__mro__)
          or hasattr(cls, "__getattr__")
          or cls.__getattribute__ is not object.__getattribute__):
        # Instances may have a ``__dict__``: asked per instance.
        kind, header = _OBJECT, f"obj:{name}(".encode()
    else:
        # No instance can have a ``__dict__`` (a slotted lattice, say).
        kind, header = _REPR, b"repr:"
    plan = _FOLD_PLANS[cls] = (kind, header, fields)
    return plan


def _fold_payload(value: Any, hasher: Any, seen: set) -> None:
    cls = type(value)
    kind, header, fields = _FOLD_PLANS.get(cls) or _fold_plan(cls)
    if kind == _LEAF or kind == _REPR:
        # Neither recurses, so neither can close a cycle.
        hasher.update(header + f"{value!r};".encode())
        return
    marker = id(value)
    if marker in seen:
        hasher.update(b"cycle;")
        return
    seen.add(marker)
    try:
        if kind == _DICT:
            hasher.update(header)
            for key in sorted(value, key=repr):
                _fold_payload(key, hasher, seen)
                _fold_payload(value[key], hasher, seen)
            hasher.update(b"}")
        elif kind == _SET:
            hasher.update(header)
            for element in sorted(value, key=repr):
                _fold_payload(element, hasher, seen)
            hasher.update(b"}")
        elif kind == _SEQUENCE:
            hasher.update(header)
            for element in value:
                _fold_payload(element, hasher, seen)
            hasher.update(b"]")
        elif kind == _DATACLASS:
            hasher.update(header)
            for name, field_header in fields:
                hasher.update(field_header)
                _fold_payload(getattr(value, name), hasher, seen)
            hasher.update(b")")
        elif hasattr(value, "__dict__"):
            hasher.update(header)
            _fold_payload(vars(value), hasher, seen)
            hasher.update(b")")
        else:
            hasher.update(f"repr:{value!r};".encode())
    finally:
        seen.discard(marker)


@dataclass(slots=True)
class _PendingRequest:
    parcel: Parcel
    destination: Hashable
    policy: RpcPolicy
    attempts: int = 1
    timer: Any = None
    on_reply: Optional[Callable[[Any], None]] = None
    on_timeout: Optional[Callable[[], None]] = None


@dataclass(slots=True)
class _InboundRequest:
    """Per-request responder state, attached to the dispatched logical
    :class:`Message` (as ``rpc_state``) so it lives exactly as long as any
    handler still holds the message — deferred replies (a handler that
    answers from a timer or a downstream event) route correctly."""

    parcel: Parcel
    reply: Optional[Parcel] = None
    forwarded: bool = False


class Transport:
    """One node's network endpoint: batching, sizing, RPC, delivery.

    ``owner`` is the hosting :class:`~repro.cluster.node.Node` (duck-typed:
    ``alive``, ``timer_drift``); a crashed owner sends and receives
    nothing, and its RPC timeouts stretch with its clock drift.
    """

    def __init__(self, network: Network, node_id: Hashable, owner: Any) -> None:
        self.network = network
        self.node_id = node_id
        self.owner = owner
        self.config = network.transport_config
        self.metrics = network.metrics
        #: mailbox -> handler, filled by ``Node.on``; :meth:`deliver` calls it.
        self.handlers: dict[str, Callable[[Message], None]] = {}
        self._queues: dict[Hashable, list[Parcel]] = {}
        #: Per-destination queue-time payload digests, parallel to
        #: ``_queues`` (only populated while ``config.sanitize`` is on).
        self._queue_digests: dict[Hashable, list[str]] = {}
        self._pending: dict[int, _PendingRequest] = {}
        #: The served memo: the newest ``DEDUP_WINDOW`` requests' replies,
        #: with their keys in arrival order in ``_served_order`` (the
        #: oldest is evicted first, as the client's completion tables do).
        self._served: dict[tuple, Optional[Parcel]] = {}
        self._served_order: deque[tuple] = deque()
        self._rpc_ids = itertools.count()
        self._logical_ids = itertools.count()
        # This node's share of what the registry's ``transport.*`` counters
        # aggregate across nodes; everything else is counted there only.
        self.logical_messages_sent = 0
        #: mailbox -> {"messages": n, "entries": n}
        self.mailbox_stats: dict[str, dict[str, int]] = {}

    # -- sending ------------------------------------------------------------------

    def queue(self, destination: Hashable, mailbox: str, payload: Any,
              entries: int = 0, _parcel: Optional[Parcel] = None) -> None:
        """Queue a parcel for ``destination``; it ships when the current
        event's callback returns (a deferred :meth:`flush`, not an event).

        Parcels queued to the same destination before the flush coalesce
        into one network message.  The payload must not be mutated after
        queueing (ownership passes to the transport — the batch is the
        snapshot).
        """
        parcel = _parcel if _parcel is not None else Parcel(mailbox, payload, entries)
        config = self.config
        if not config.batching:
            self._send(destination, (parcel,))
            return
        queues = self._queues
        if not queues:
            # First parcel since a flush emptied the queues: defer the next.
            self.network.simulator.defer(self.flush)
            queues[destination] = [parcel]
        else:
            queues.setdefault(destination, []).append(parcel)
        if config.sanitize:
            self._queue_digests.setdefault(destination, []).append(
                payload_digest(parcel.payload))

    def flush(self, destination: Optional[Hashable] = None) -> None:
        """Ship queued parcels now (all destinations, or one).

        Crashed owners ship nothing: their queues are dropped, matching
        fail-stop send semantics.
        """
        if destination is None:
            queues, self._queues = self._queues, {}
            digest_map, self._queue_digests = self._queue_digests, {}
        else:
            parcels = self._queues.pop(destination, None)
            queues = {destination: parcels} if parcels else {}
            digest_map = {destination: self._queue_digests.pop(destination, None)}
        if not self.owner.alive:
            return
        # Sorted, never hash order — and reversed under the perturb-order
        # sanitizer, which any correct caller must be indifferent to.  (One
        # destination, the common flush, has only one order.)
        config = self.config
        order = queues if len(queues) == 1 else sorted(
            queues, key=repr, reverse=config.perturb_order)
        for dest in order:
            parcels = queues[dest]
            if config.sanitize:
                self._check_unmutated(dest, parcels, digest_map.get(dest))
            self._send(dest, tuple(parcels))

    def _check_unmutated(self, destination: Hashable, parcels: list[Parcel],
                         digests: Optional[list[str]]) -> None:
        """The sanitizer's flush-time pass: re-digest each payload and
        compare it with the digest taken when it was queued."""
        for parcel, queued_digest in zip(parcels, digests or ()):
            if payload_digest(parcel.payload) != queued_digest:
                raise PayloadMutationError(
                    f"payload of parcel {parcel.mailbox!r} "
                    f"{self.node_id!r}->{destination!r} (entries="
                    f"{parcel.entries}, rpc_id={parcel.rpc_id}) was "
                    "mutated after queue(); the transport owns queued "
                    "payloads — snapshot before queueing instead")

    def _send(self, destination: Hashable,
              parcels: tuple[Parcel, ...]) -> Message:
        """Put ``parcels`` on the wire as one network message and account
        it in one pass: per-mailbox logical counts, the envelope (one header
        however many parcels) and the transmission cost the network stamped
        on it — with the bandwidth model on the batching economy shows up
        as amortized serialization ticks, not just saved header bytes."""
        mailbox_stats = self.mailbox_stats
        entries = logical = 0
        for parcel in parcels:
            try:
                stats = mailbox_stats[parcel.mailbox]
            except KeyError:
                stats = mailbox_stats[parcel.mailbox] = {
                    "messages": 0, "entries": 0}
            stats["messages"] += 1
            stats["entries"] += parcel.entries
            entries += parcel.entries
            logical += 1
        message = self.network.send(self.node_id, destination,
                                    TRANSPORT_MAILBOX, parcels,
                                    wire_size(entries))
        self.logical_messages_sent += logical
        counts = self.metrics.counts
        counts["transport.logical_messages_sent"] += logical
        counts["transport.envelopes_sent"] += 1
        if logical > 1:
            counts["transport.header_bytes_saved"] += (logical - 1) * WIRE_HEADER_BYTES
        timing = message.transmission
        if timing is not _NO_COST:  # model off: nothing stamped
            queue_wait, serialization, nic_wait = timing
            if serialization:
                counts["transport.serialization_ticks"] += serialization
            if queue_wait:
                counts["transport.queue_wait_ticks"] += queue_wait
            if nic_wait:
                counts["transport.nic_wait_ticks"] += nic_wait
        return message

    # -- RPC: requester side ------------------------------------------------------

    def request(self, destination: Hashable, mailbox: str, payload: Any, *,
                entries: int = 0,
                policy: Optional[RpcPolicy] = None,
                on_reply: Optional[Callable[[Any], None]] = None,
                on_timeout: Optional[Callable[[], None]] = None) -> int:
        """Send a request expecting a reply; returns the rpc id.

        The reply (whatever mailbox the responder chooses) is dispatched to
        this node's ordinary handlers, then ``on_reply``.  If no reply lands
        within ``policy.timeout`` the identical request is re-sent, up to
        ``policy.max_attempts`` total attempts; responders suppress the
        duplicates (re-serving the memoized reply), so at-least-once send
        composes into effectively-once handling.
        """
        policy = policy or self.config.rpc
        rpc_id = next(self._rpc_ids)
        parcel = Parcel(mailbox, payload, entries, rpc_id, "request",
                        self.node_id)
        pending = _PendingRequest(parcel, destination, policy, 1, None,
                                  on_reply, on_timeout)
        self._pending[rpc_id] = pending
        self.metrics.counts["transport.rpc_requests"] += 1
        self.queue(destination, mailbox, payload, entries, parcel)
        self._arm_timer(pending)
        return rpc_id

    def _arm_timer(self, pending: _PendingRequest) -> None:
        # Straight on the heap, drift-stretched like any node timer; no
        # liveness guard, because ``on_crash`` cancels every pending timer.
        # The lazy label holds the two ids, not ``pending``: the event is
        # ``pending.timer``, and a cycle would park every finished request
        # on the garbage collector.
        rpc_id = pending.parcel.rpc_id
        pending.timer = self.network.simulator.schedule(
            pending.policy.timeout * self.owner.timer_drift,
            partial(self._on_rpc_timeout, rpc_id),
            partial("rpc-timeout@{}#{}".format, self.node_id, rpc_id))

    def _on_rpc_timeout(self, rpc_id: int) -> None:
        pending = self._pending.get(rpc_id)
        if pending is None:
            return
        if pending.attempts >= pending.policy.max_attempts:
            del self._pending[rpc_id]
            self.metrics.increment("transport.rpc_timeouts")
            self.metrics.increment_keyed("transport.rpc_timeouts_to",
                                         pending.destination)
            if pending.on_timeout is not None:
                pending.on_timeout()
            return
        pending.attempts += 1
        self.metrics.increment("transport.rpc_retries")
        self.queue(pending.destination, pending.parcel.mailbox,
                   pending.parcel.payload, pending.parcel.entries,
                   _parcel=pending.parcel)
        self._arm_timer(pending)

    # -- RPC: responder side ------------------------------------------------------

    def reply(self, request: Message, mailbox: str, payload: Any,
              entries: int = 0) -> None:
        """Answer ``request``.  RPC requests get a matched reply parcel
        routed to the original requester (even across forwards); plain
        messages get an ordinary parcel back to their immediate source.

        The reply may be deferred — a handler that stored the request and
        answers later (a timer, a downstream event) still routes as RPC,
        and the late reply refreshes the duplicate-suppression memo so a
        retried request re-serves it.
        """
        inbound: Optional[_InboundRequest] = request.rpc_state
        if inbound is not None:
            asked = inbound.parcel
            parcel = Parcel(mailbox, payload, entries, asked.rpc_id, "reply")
            inbound.reply = parcel
            memo_key = (asked.reply_to, asked.rpc_id)
            if memo_key in self._served:
                self._served[memo_key] = parcel
            self.queue(asked.reply_to, mailbox, payload, entries, parcel)
        else:
            self.queue(request.source, mailbox, payload, entries)

    def forward(self, request: Message, destination: Hashable) -> None:
        """Relay the RPC ``request`` onward, preserving its reply routing.

        The original typed parcel is re-shipped, so the eventual responder
        answers straight to the original requester; the forwarder memoizes
        nothing, so a retried request is re-forwarded rather than
        suppressed.  Only an RPC request can be forwarded: a plain message
        carries no requester to answer, so it raises :class:`TypeError`.
        """
        inbound: Optional[_InboundRequest] = request.rpc_state
        if inbound is None:
            raise TypeError(
                f"forward needs an RPC request; {request.mailbox!r} from "
                f"{request.source!r} is a plain message")
        inbound.forwarded = True
        self.queue(destination, inbound.parcel.mailbox, inbound.parcel.payload,
                   inbound.parcel.entries, _parcel=inbound.parcel)

    # -- receiving ----------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """The node's network endpoint: every message addressed to it.

        The message's payload, a tuple of parcels, is unpacked here into one
        logical :class:`Message` per parcel.  An RPC reply settles its
        pending request first, and a duplicate or late one is suppressed.
        An RPC request is checked against the served memo first, and a
        duplicate re-serves the memoized reply without re-running the
        handler.  The owner's liveness is checked before every parcel: if
        an earlier parcel's handler crashed the node, the remaining parcels
        are lost — exactly what fail-stop delivery would have done to the
        equivalent stand-alone messages.
        """
        owner = self.owner
        handlers = self.handlers
        counts = self.metrics.counts
        served = self._served
        served_order = self._served_order
        for parcel in message.payload:
            if not owner.alive:
                return
            kind = parcel.rpc_kind
            if kind == "reply":
                pending = self._pending.pop(parcel.rpc_id, None)
                if pending is None:
                    # The request was already answered (or abandoned):
                    # suppress instead of re-running handlers.
                    counts["transport.rpc_duplicate_replies"] += 1
                    continue
                if pending.timer is not None:
                    pending.timer.cancel()
            elif kind == "request":
                memo_key = (parcel.reply_to, parcel.rpc_id)
                if memo_key in served:
                    # A retry: do not re-run the handler; if a reply was
                    # served, re-send it — its first copy may have been the
                    # thing that got lost.
                    counts["transport.rpc_duplicate_requests"] += 1
                    reply = served[memo_key]
                    if reply is not None:
                        self.queue(parcel.reply_to, reply.mailbox,
                                   reply.payload, reply.entries, reply)
                    continue
            logical = Message(message.source, self.node_id, parcel.mailbox,
                              parcel.payload, message.sent_at,
                              next(self._logical_ids))
            if kind == "request":
                # The responder state rides along out-of-band so a deferred
                # reply (sent after the handler returns) still routes.
                logical.rpc_state = inbound = _InboundRequest(parcel)
            handler = handlers.get(parcel.mailbox)
            if handler is not None:
                handler(logical)
            if kind == "reply":
                if pending.on_reply is not None:
                    pending.on_reply(parcel.payload)
            elif kind == "request" and not inbound.forwarded:
                # Memoize even when the reply is still None: the handler
                # ran, so a duplicate must not re-run it; a deferred reply
                # refreshes this entry when it is sent (see reply()).
                served[memo_key] = inbound.reply
                served_order.append(memo_key)
                if len(served_order) > DEDUP_WINDOW:
                    del served[served_order.popleft()]

    # -- failure hooks ------------------------------------------------------------

    def on_crash(self) -> None:
        """Fail-stop: queued parcels, pending requests (and their timeout
        events) and the dedup memo die with the process."""
        self._queues.clear()
        self._queue_digests.clear()
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        self._served.clear()
        self._served_order.clear()

    # -- introspection ------------------------------------------------------------

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    def queued_parcels(self, destination: Optional[Hashable] = None) -> int:
        if destination is not None:
            return len(self._queues.get(destination, ()))
        return sum(len(parcels) for parcels in self._queues.values())

    def __repr__(self) -> str:
        return (f"Transport({self.node_id!r}, "
                f"logical={self.logical_messages_sent})")
