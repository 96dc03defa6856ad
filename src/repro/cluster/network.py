"""The simulated network: asynchronous, lossy, reordering message delivery.

HydroLogic's ``send`` statement has exactly these semantics — a message may
be delayed an unbounded number of ticks and appears non-deterministically
later — so the network model is the heart of the distributed substrate.
Delays are sampled from a configurable distribution, messages can be
dropped or duplicated, and partitions can be installed and healed to test
availability and consistency protocols.

Bytes take time: when :attr:`NetworkConfig.bandwidth` (or a
:class:`DelayMatrix` entry) prices a link, each ``(source, destination)``
pair models a FIFO transmission queue — a message's delivery time is its
queueing delay behind earlier messages on the same link, plus its
serialization time (``size_bytes / bandwidth``), plus the sampled
propagation delay.  When :attr:`NetworkConfig.nic_bandwidth` additionally
prices every node's NIC, the message first serializes through the sender's
shared *uplink* queue and finally through the receiver's shared *downlink*
queue — so a same-instant fan-out to N peers contends at the source instead
of enjoying N free parallel links:

    delivery = NIC wait + NIC serialization + link queue wait
               + link serialization + propagation delay

With the model off (the default: no bandwidth anywhere), every code path —
including the RNG draws — is exactly the size-blind network of earlier
revisions, so existing traces stay byte-identical.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Hashable, Optional

from repro.cluster.simulator import Simulator

#: Shared zero-cost ``(queue_wait, serialization, nic_wait)`` transmission
#: tuple: reused (and identity-compared) on the model-off fast path so
#: sends allocate nothing for it.
_NO_COST = (0.0, 0.0, 0.0)

#: Modelled fixed cost of any message: routing envelope, mailbox name, ids.
WIRE_HEADER_BYTES = 24
#: Modelled marginal cost of one key/value entry in a storage payload.
WIRE_ENTRY_BYTES = 96


def wire_size(entry_count: int) -> int:
    """Modelled size of a payload carrying ``entry_count`` key/value entries.

    The simulator does not serialize payloads, so bandwidth accounting has
    to be declared by senders.  Sizing by entry count (instead of a flat
    constant) is what lets ``Network.bytes_sent`` distinguish a gossip
    window of 3 changed keys from a digest repair of 5000.
    """
    return WIRE_HEADER_BYTES + WIRE_ENTRY_BYTES * entry_count


def _require(ok: bool, name: str, value: Any, rule: str) -> None:
    """Refuse a config number where it is written, naming its field: a
    zero or negative rate or delay would otherwise break the first send."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """An addressed message travelling through the simulated network.

    Immutable by convention, not ``frozen`` (which costs one
    ``object.__setattr__`` call per field per message): only the network
    and the transport write a field, the two riders below, on a message
    they just built.
    """

    source: Hashable
    destination: Hashable
    mailbox: str
    payload: Any
    sent_at: float
    message_id: int
    #: Declared wire size; what the transmission model charges the link.
    size_bytes: int = 0
    #: Out-of-band (queue_wait, serialization, nic_wait) cost of the primary
    #: transmission, stamped by the network when it schedules delivery (the
    #: zero tuple when the send was dropped or unpriced; a fabric-injected
    #: duplicate's second transmission is not reflected); excluded from
    #: equality/repr like any transport rider.
    transmission: tuple = field(default=_NO_COST, compare=False, repr=False)
    #: Out-of-band responder state for RPC requests (see
    #: ``transport._InboundRequest``).
    rpc_state: Any = field(default=None, compare=False, repr=False)

    def delivery_label(self) -> str:
        """The delivery event's trace label (rendered only when traced)."""
        return f"deliver {self.mailbox} {self.source}->{self.destination}"


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Delay/bandwidth profile for one (source domain, destination domain)
    pair.  ``None`` fields fall back to the :class:`NetworkConfig`
    defaults, so a matrix may override only delay, only bandwidth, or both.
    """

    delay: Optional[float] = None
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        delay, bandwidth = self.delay, self.bandwidth
        _require(delay is None or delay >= 0, "delay", delay, ">= 0 or None")
        _require(bandwidth is None or bandwidth > 0, "bandwidth", bandwidth,
                 "> 0 or None")


class DelayMatrix:
    """A locality-aware inter-domain link matrix (IDMS-style, Wang et al.).

    Every *(source domain, destination domain)* pair may carry its own
    propagation delay and bandwidth — intra-AZ links fast and fat,
    cross-region links slow and thin; a same-domain pair is just the entry
    whose two domains are equal.  Lookups are exact ordered
    pairs; ``set_link(..., symmetric=True)`` (the default) installs both
    directions at once, and asymmetric routes (a saturated uplink, say)
    just set each direction separately.
    """

    def __init__(self) -> None:
        self._links: dict[tuple[Hashable, Hashable], LinkSpec] = {}

    def set_link(self, source_domain: Hashable, destination_domain: Hashable,
                 *, delay: Optional[float] = None,
                 bandwidth: Optional[float] = None,
                 symmetric: bool = True) -> LinkSpec:
        spec = LinkSpec(delay=delay, bandwidth=bandwidth)
        self._links[(source_domain, destination_domain)] = spec
        if symmetric:
            self._links[(destination_domain, source_domain)] = spec
        return spec

    def link(self, source_domain: Hashable,
             destination_domain: Hashable) -> Optional[LinkSpec]:
        return self._links.get((source_domain, destination_domain))

    @classmethod
    def uniform(cls, domains, *, intra_delay: Optional[float] = None,
                inter_delay: Optional[float] = None,
                intra_bandwidth: Optional[float] = None,
                inter_bandwidth: Optional[float] = None) -> "DelayMatrix":
        """A full matrix with one intra-domain and one inter-domain profile."""
        matrix = cls()
        ordered = sorted(domains, key=repr)
        for i, domain_a in enumerate(ordered):
            matrix.set_link(domain_a, domain_a, delay=intra_delay,
                            bandwidth=intra_bandwidth)
            for domain_b in ordered[i + 1:]:
                matrix.set_link(domain_a, domain_b, delay=inter_delay,
                                bandwidth=inter_bandwidth)
        return matrix

    def max_delay(self) -> float:
        """The largest propagation delay pinned by any entry (0.0 if none).

        Latency-bound checkers use this to size their per-hop budget: a
        matrix may pin delays far above ``NetworkConfig.base_delay``, and a
        bound derived from the base alone would be violated by every
        healthy cross-region hop.
        """
        worst = 0.0
        for spec in self._links.values():
            if spec.delay is not None and spec.delay > worst:
                worst = spec.delay
        return worst

    def __len__(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:
        return f"DelayMatrix({len(self._links)} directed links)"


@dataclass(slots=True)
class NetworkConfig:
    """Link behaviour knobs.

    ``base_delay`` and ``jitter`` define a uniform delay in
    ``[base_delay, base_delay + jitter]``; ``drop_rate`` and
    ``duplicate_rate`` are independent Bernoulli probabilities applied per
    message.

    ``bandwidth`` turns the transmission model on: each ``(src, dst)`` link
    transmits at most that many bytes per tick through a FIFO queue, so a
    message's delivery time grows with its size and with the backlog ahead
    of it.  ``delay_matrix`` refines both delay and bandwidth per failure-
    domain pair (a same-domain fast path is its diagonal).  Both default to
    off, which keeps the pre-model network — and its event traces —
    byte-identical.

    Construction refuses a number the first send could not price: delays
    and jitter must be >= 0, the two rates probabilities in [0, 1], and each
    bandwidth > 0 or ``None``.
    """

    base_delay: float = 1.0
    jitter: float = 0.5
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    #: Bytes per tick a link transmits; ``None`` means infinite (model off).
    bandwidth: Optional[float] = None
    #: Per-domain-pair delay/bandwidth overrides; ``None`` means none.
    delay_matrix: Optional[DelayMatrix] = None
    #: Bytes per tick a node's shared NIC transmits.  Unlike ``bandwidth``
    #: (per ``(src, dst)`` pair), this queue is shared by *all* of a node's
    #: links: outbound messages serialize through the sender's uplink
    #: before the per-link pipe, and through the receiver's downlink after
    #: it.  Every NIC is priced by this one rate; ``None`` means infinite
    #: (NIC stage off).
    nic_bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("base_delay", "jitter"):
            value = getattr(self, name)
            _require(value >= 0, name, value, ">= 0")
        for name in ("drop_rate", "duplicate_rate"):
            value = getattr(self, name)
            _require(0 <= value <= 1, name, value, "in [0, 1]")
        for name in ("bandwidth", "nic_bandwidth"):
            value = getattr(self, name)
            _require(value is None or value > 0, name, value, "> 0 or None")


@dataclass(slots=True)
class Partition:
    """A network partition separating two groups of nodes.

    Semantics, pinned by ``tests/cluster/test_network_and_nodes.py``:

    * a node never loses connectivity to itself (self-sends cross no cut);
    * a node listed in *both* groups is a **bridge** — it straddles the cut
      and keeps connectivity to every node in either group (the
      "Jepsen bridge" nemesis), while the two pure sides stay separated
      from each other;
    * ``oneway=True`` makes the cut **asymmetric**: traffic from
      ``group_a`` to ``group_b`` is severed while the reverse direction
      still flows — the half-open link of a misconfigured firewall or a
      saturated uplink.
    """

    group_a: frozenset
    group_b: frozenset
    oneway: bool = False

    def separates(self, source: Hashable, destination: Hashable) -> bool:
        if source == destination:
            return False
        if (source in self.group_a and source in self.group_b) or (
            destination in self.group_a and destination in self.group_b
        ):
            return False
        if source in self.group_a and destination in self.group_b:
            return True
        return (not self.oneway
                and source in self.group_b and destination in self.group_a)


@dataclass(slots=True, eq=False)
class Degradation:
    """Handle for one active link degradation (:meth:`Network.degrade`).

    Retired by **identity**, like :class:`Partition` handles: two
    overlapping faults of equal value hold distinct handles, so one window
    expiring — or a stale restore after :meth:`Network.restore_all` — never
    retires the other (a value-based ``list.remove`` would conflate them).
    """

    #: Multiplier on propagation delay: of every link when ``node`` is
    #: ``None`` (a fabric-wide latency spike), else of every link touching
    #: ``node`` and of each serialization it takes part in (a slow node).
    delay_factor: float = 1.0
    node: Optional[Hashable] = None
    #: Floor under :attr:`NetworkConfig.drop_rate`.
    drop_rate: float = 0.0
    #: Divisor of every link's and NIC's bandwidth (congestion).
    squeeze: float = 1.0


@dataclass(slots=True, eq=False)
class _Fifo:
    """One FIFO server: when it finishes serializing everything queued."""

    busy_until: float = 0.0


@dataclass(slots=True, eq=False)
class _Nic:
    """One node's shared NIC: its two FIFOs, both priced by
    :attr:`NetworkConfig.nic_bandwidth`."""

    uplink: _Fifo = field(default_factory=_Fifo)
    downlink: _Fifo = field(default_factory=_Fifo)


@dataclass(slots=True, eq=False)
class _Link:
    """All the model keeps for one directed ``(source, destination)`` link:
    its endpoints' NIC records, the pipe's own FIFO horizon, and the byte
    ledger.  ``send`` looks it up once and hands it to the delivery, so a
    delivery or drop resolves exactly the ledger its send charged."""

    source_nic: _Nic
    destination_nic: _Nic
    busy_until: float = 0.0
    enqueued_bytes: int = 0
    delivered_bytes: int = 0
    dropped_bytes: int = 0
    in_flight_bytes: int = 0


class Network:
    """Delivers messages between registered nodes with simulated asynchrony.

    ``transport`` sets the default :class:`~repro.cluster.transport.TransportConfig`
    every node's :class:`~repro.cluster.transport.Transport` inherits
    (batching on/off, RPC policy); ``metrics`` is the shared registry the
    transport layer writes its envelope/batching counters into.
    """

    def __init__(self, simulator: Simulator, config: NetworkConfig | None = None,
                 transport=None, metrics=None) -> None:
        # Imported here: transport.py sizes envelopes via this module.
        from repro.cluster.metrics import MetricsRegistry
        from repro.cluster.transport import TransportConfig

        self.simulator = simulator
        self.config = config or NetworkConfig()
        self.transport_config = transport or TransportConfig()
        self.metrics = metrics or MetricsRegistry()
        self._handlers: dict[Hashable, Callable[[Message], None]] = {}
        self._partitions: list[Partition] = []
        self._next_message_id = 0
        self._domain_of: dict[Hashable, Hashable] = {}
        # Transmission model state, untouched while the model is off: one
        # record per directed link a priced send used and one per node's
        # NIC.
        self._links: dict[tuple[Hashable, Hashable], _Link] = {}
        self._nics: defaultdict[Hashable, _Nic] = defaultdict(_Nic)
        # Every active link degradation, in arming order.  The send path
        # never walks it: ``_refold`` folds it into a few floats whenever
        # it changes.
        self._degradations: list[Degradation] = []
        #: High-water mark of nic_wait + queue_wait + serialization observed
        #: on any link — the CALM latency bound consumes this instead of
        #: assuming transmission is free.
        self.max_transmission_delay = 0.0
        #: High-water mark of the worst propagation delay the network could
        #: sample (base or worst matrix entry, plus jitter, times the fabric
        #: factor and the worst pair of slow-node factors) — the same bound
        #: scales with it, not with the config alone.
        self.max_link_delay = 0.0
        self._refold()
        #: Opt-in for the ``net.delivery`` latency recorder while the model
        #: is off (with the model on, every delivery is recorded).
        self.record_delivery_latency = False
        #: Windowed per-link observations (sends, drops, delivery latency),
        #: filed under the same gate as the latency recorder — the raw
        #: material :mod:`repro.chaos.diagnosis` runs tomography over.
        #: ``None`` until its reader attaches a
        #: :class:`~repro.cluster.metrics.LinkObservatory` (``ChaosEnv``
        #: does): its table grows with run length on a priced network, and
        #: nothing else reads it.
        self.observatory = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # -- registration -----------------------------------------------------------

    def register(self, node_id: Hashable, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` to receive messages addressed to ``node_id``."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} is already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: Hashable) -> None:
        self._handlers.pop(node_id, None)

    def registered_nodes(self) -> list[Hashable]:
        """Ids of every registered node, in registration order."""
        return list(self._handlers)

    def set_domain(self, node_id: Hashable, domain: Hashable) -> None:
        """Record the failure domain of a node for locality-aware delays."""
        self._domain_of[node_id] = domain

    def domains(self) -> dict[Hashable, Hashable]:
        """A copy of the node → failure-domain map (diagnosis reads this to
        price each link's expected latency under a :class:`DelayMatrix`)."""
        return dict(self._domain_of)

    # -- link degradations ---------------------------------------------------------

    def degrade(self, *, delay_factor: float = 1.0,
                node: Optional[Hashable] = None, drop_rate: float = 0.0,
                squeeze: float = 1.0) -> Degradation:
        """Degrade the links until the returned handle is restored.

        ``delay_factor`` multiplies propagation delay — of the whole fabric,
        or with ``node`` of every link touching that node (whose
        serializations slow down with it); ``drop_rate`` is a floor under
        the configured drop rate; ``squeeze`` divides every link's and NIC's
        bandwidth (only meaningful while the transmission model is on: with
        no bandwidth configured anywhere, bytes cost no time to squeeze).
        Overlapping degradations compose — factors and squeezes multiply in
        arming order, the highest floor wins — and restore independently.
        :attr:`config` is never written.
        """
        if delay_factor <= 0 or squeeze <= 0:
            raise ValueError("degradation factors must be positive, got "
                             f"delay_factor={delay_factor} squeeze={squeeze}")
        handle = Degradation(delay_factor, node, drop_rate, squeeze)
        self._degradations.append(handle)
        self._refold()
        return handle

    def restore(self, handle: Degradation) -> None:
        """Retire one active degradation.

        Idempotent, and removal is by handle identity: a stale restore (a
        fault window outliving a :meth:`restore_all`) can never retire a
        *different* degradation of equal value.  Anything but a handle (a
        bare factor, say) is a ``TypeError``.
        """
        if not isinstance(handle, Degradation):
            raise TypeError(f"expected the handle degrade returned, got {handle!r}")
        self._degradations = [d for d in self._degradations if d is not handle]
        self._refold()

    def restore_all(self) -> None:
        self._degradations = []
        self._refold()

    # The end-to-end benchmark (``benchmarks/e2e/bench_e2e/kvs.py``) squeezes
    # through these two names and may not be edited alongside the code it
    # measures; they go when a benchmark change re-points it (ROADMAP item 1).
    def add_bandwidth_squeeze(self, factor: float) -> Degradation:
        return self.degrade(squeeze=factor)

    def remove_bandwidth_squeeze(self, handle: Degradation) -> None:
        self.restore(handle)

    def _refold(self) -> None:
        """Fold the active handles, in arming order, into what a send reads."""
        delay_factor = squeeze = 1.0
        drop_floor = 0.0
        node_factors: dict[Hashable, float] = {}
        for handle in self._degradations:
            if handle.node is None:
                delay_factor *= handle.delay_factor
            else:
                node_factors[handle.node] = (
                    node_factors.get(handle.node, 1.0) * handle.delay_factor)
            if handle.drop_rate > drop_floor:
                drop_floor = handle.drop_rate
            squeeze *= handle.squeeze
        # Products of the active fabric-wide delay factors and of the
        # congestion squeezes, the highest drop floor, per-node products.
        self.delay_factor = delay_factor
        self.drop_floor = drop_floor
        self.bandwidth_squeeze = squeeze
        self._node_factors = node_factors
        config = self.config
        worst = config.base_delay
        if config.delay_matrix is not None:
            worst = max(worst, config.delay_matrix.max_delay())
        # A link's delay is multiplied by the factor product of *both*
        # endpoints; the worst pair is the two largest per-node products.
        worst_pair = 1.0
        for factor in sorted(node_factors.values(), reverse=True)[:2]:
            worst_pair *= factor
        self.max_link_delay = max(
            self.max_link_delay,
            (worst * delay_factor + config.jitter * delay_factor) * worst_pair)

    @property
    def drop_rate(self) -> float:
        """The drop probability in force: the configured rate or the
        highest active floor, whichever is larger."""
        return max(self.config.drop_rate, self.drop_floor)

    def node_delay_factor(self, node_id: Hashable) -> float:
        """The composed product of ``node_id``'s active delay factors."""
        return self._node_factors.get(node_id, 1.0)

    def slowed_nodes(self) -> dict[Hashable, float]:
        """Every node with an active delay factor, with its composed product."""
        return dict(self._node_factors)

    # -- shared NIC queues -------------------------------------------------------

    def nic_backlog(self, node_id: Hashable, *,
                    downlink: bool = False) -> float:
        """Ticks until the node's NIC finishes its queued serializations
        (uplink by default; ``downlink=True`` for the receive side)."""
        nic = self._nics.get(node_id)
        if nic is None:
            return 0.0
        fifo = nic.downlink if downlink else nic.uplink
        return max(0.0, fifo.busy_until - self.simulator.now)

    # -- partitions -------------------------------------------------------------

    def partition(self, group_a, group_b, oneway: bool = False) -> Partition:
        """Install a partition between two node groups; returns a handle.

        ``oneway=True`` severs only ``group_a`` → ``group_b`` traffic (the
        asymmetric cut); the reverse direction keeps flowing.
        """
        part = Partition(frozenset(group_a), frozenset(group_b), oneway=oneway)
        self._partitions.append(part)
        return part

    def heal(self, partition: Partition) -> None:
        """Remove a previously installed partition.

        Idempotent, and removal is by handle identity — healing one handle
        twice is a no-op, and never removes a *different* partition that
        happens to cover the same groups (``list.remove`` would, because
        dataclass equality conflates equal-valued handles).
        """
        self._partitions = [p for p in self._partitions if p is not partition]

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_reachable(self, source: Hashable, destination: Hashable) -> bool:
        partitions = self._partitions
        if not partitions:  # the overwhelmingly common case: no cut installed
            return True
        for partition in partitions:
            if partition.separates(source, destination):
                return False
        return True

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        source: Hashable,
        destination: Hashable,
        mailbox: str,
        payload: Any,
        size_bytes: int,
    ) -> Message:
        """Send ``payload`` to ``destination``'s ``mailbox``.

        ``size_bytes`` is mandatory: bandwidth accounting is declared by the
        sender, and silent defaults under-reported every payload that scales
        with entries.  Protocol code should not call this directly — go
        through a node's :class:`~repro.cluster.transport.Transport`, which
        derives sizes from typed entry counts via :func:`wire_size`.

        The message is scheduled for delivery after a sampled delay unless a
        partition separates the endpoints or the drop lottery fires, in which
        case it silently disappears (as the paper's ``send`` semantics allow).
        With the transmission model on, delivery additionally waits out the
        sender's shared NIC, the link's FIFO backlog, the message's own
        serialization time, and the receiver's shared NIC.
        """
        simulator = self.simulator
        config = self.config
        message = Message(source, destination, mailbox, payload,
                          simulator.now, self._next_message_id, size_bytes)
        self._next_message_id += 1
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        # The one gate of this send.  A priced send fetches its link record
        # here, once; the stage walk, the delivery and a drop are handed it
        # (``None``: this send charged no ledger), never look it up again.
        link = window = None
        if (config.bandwidth is not None or config.delay_matrix is not None
                or config.nic_bandwidth is not None):
            link = self._links.get((source, destination))
            if link is None:
                link = self._links[(source, destination)] = _Link(
                    self._nics[source], self._nics[destination])
        if link is not None or self.record_delivery_latency:
            observatory = self.observatory
            if observatory is not None:
                window = observatory.window_of(source, destination,
                                               message.sent_at)
                window.sent_messages += 1
                window.sent_bytes += size_bytes
        drop_rate = self.drop_rate if self._degradations else config.drop_rate
        if ((self._partitions and not self.is_reachable(source, destination))
                or (drop_rate and simulator.rng.random() < drop_rate)):
            self._ledger_drop(message, link, window, in_flight=False)
            return message

        # The transmission cost rides along on the message so callers
        # holding it can ledger the cost without racing a later send.
        message.transmission = self._schedule_delivery(message, link, window)
        if (
            config.duplicate_rate
            and simulator.rng.random() < config.duplicate_rate
        ):
            # The duplicate is a real retransmission: it occupies the link
            # (and the byte ledger) a second time.
            self._schedule_delivery(message, link, window)
        return message

    # -- internals --------------------------------------------------------------

    def _ledger_drop(self, message: Message, link: Optional[_Link],
                     window, in_flight: bool) -> None:
        """Account one dropped message: at send time (it never entered a
        queue, so enqueued and dropped are charged together) or, ``in_flight``,
        at its delivery event — on the link record its send charged and in
        the observatory window it is counted in (``None``: neither)."""
        self.messages_dropped += 1
        size = message.size_bytes
        if link is not None:
            link.dropped_bytes += size
            if in_flight:
                link.in_flight_bytes -= size
            else:
                link.enqueued_bytes += size
        if window is not None:
            window.dropped_messages += 1
            window.dropped_bytes += size

    def link_byte_stats(self) -> dict[tuple[Hashable, Hashable], dict[str, int]]:
        """Per-link byte conservation ledger (copies; priced sends only).

        Invariant at *every* instant, idle or not: for each link,
        ``enqueued_bytes == delivered_bytes + dropped_bytes +
        in_flight_bytes`` and ``in_flight_bytes >= 0`` — a send-time drop
        charges enqueued and dropped atomically (the message never enters a
        queue), and a scheduled message stays in flight until its delivery
        event resolves it one way or the other.  A delivery resolves only
        the ledger its send charged, so switching the model while messages
        are in flight neither credits bytes that were never enqueued nor
        strands bytes that were.  Once idle, ``in_flight_bytes`` is 0 and
        the classic two-term form holds.
        """
        return {key: {"enqueued_bytes": link.enqueued_bytes,
                      "delivered_bytes": link.delivered_bytes,
                      "dropped_bytes": link.dropped_bytes,
                      "in_flight_bytes": link.in_flight_bytes}
                for key, link in self._links.items()}

    def link_backlog(self, source: Hashable, destination: Hashable) -> float:
        """Ticks until the (src, dst) link finishes its queued transmissions."""
        link = self._links.get((source, destination))
        return max(0.0, link.busy_until - self.simulator.now) if link else 0.0

    def effective_bandwidth(self, source: Hashable,
                            destination: Hashable) -> Optional[float]:
        """The link's current bytes/tick after matrix overrides and
        congestion squeezes; ``None`` when the link is unpriced."""
        squeeze, _, bandwidth = self._rates(
            self._matrix_entry(source, destination))
        return None if bandwidth is None else bandwidth / squeeze

    def _matrix_entry(self, source: Hashable,
                      destination: Hashable) -> Optional[LinkSpec]:
        """The :class:`DelayMatrix` entry for ``source`` → ``destination``
        (it prices both the link's bandwidth and its delay), if any."""
        matrix = self.config.delay_matrix
        if matrix is None:
            return None
        domain_of = self._domain_of.get
        return matrix.link(domain_of(source), domain_of(destination))

    def _rates(self, spec: Optional[LinkSpec]) -> tuple:
        """The bandwidth pricing rules, in one place: ``(squeeze, nic,
        link)`` — the congestion product dividing every stage's bytes/tick,
        then the NICs' and the link's configured bytes/tick (``None``:
        unpriced).  A matrix entry overrides the config's ``bandwidth``;
        every NIC is priced by its ``nic_bandwidth``."""
        config = self.config
        bandwidth = config.bandwidth
        if spec is not None and spec.bandwidth is not None:
            bandwidth = spec.bandwidth
        return self.bandwidth_squeeze, config.nic_bandwidth, bandwidth

    def _transmit(self, size: int, link: _Link, spec: Optional[LinkSpec],
                  source_factor: float,
                  destination_factor: float) -> tuple[float, float, float]:
        """Charge ``size`` bytes through the transmission pipeline: sender
        uplink NIC → per-link pipe → receiver downlink NIC, skipping every
        unpriced stage.

        Returns ``(queue_wait, serialization, nic_wait)`` in ticks.  Each
        stage starts when both the message's previous stage and the stage's
        own FIFO horizon have cleared; a gray-failure node factor multiplies
        each serialization the degraded endpoint touches exactly once
        (uplink: sender's; link: both; downlink: receiver's) — never the
        accumulated pipeline time, so stacked stages do not compound it.
        """
        link.enqueued_bytes += size
        link.in_flight_bytes += size
        squeeze, nic, bandwidth = self._rates(spec)
        now = finish = self.simulator.now
        queue_wait = nic_wait = serialization = 0.0
        for fifo, rate, first_factor, second_factor in (
                (link.source_nic.uplink, nic, source_factor, 1.0),
                (link, bandwidth, source_factor, destination_factor),
                (link.destination_nic.downlink, nic, 1.0, destination_factor)):
            if rate is None:
                continue
            stage = size / (rate / squeeze) * first_factor * second_factor
            start = fifo.busy_until
            if start < finish:
                start = finish
            if fifo is link:
                queue_wait = start - finish
            else:
                nic_wait += start - finish
            fifo.busy_until = finish = start + stage
            serialization += stage
        total = finish - now
        if total == 0.0:
            # Every stage was unpriced (e.g. a delay-only matrix): share the
            # zero-cost identity tuple like the model-off fast path.
            return _NO_COST
        if total > self.max_transmission_delay:
            self.max_transmission_delay = total
        return (queue_wait, serialization, nic_wait)

    def _schedule_delivery(self, message: Message, link: Optional[_Link],
                           window) -> tuple[float, float, float]:
        """Price one transmission of ``message`` and schedule its delivery.
        The matrix entry and the two node factors are resolved here, once,
        for both the stage walk and the propagation delay."""
        config = self.config
        source = message.source
        destination = message.destination
        base = config.base_delay
        stretch = source_factor = destination_factor = 1.0
        if self._degradations:
            # A fabric factor stretches whichever delay prices the link and
            # its jitter; a slow node's endpoints serialize slowly too (the
            # gray-failure factor composes with congestion squeezes).
            stretch = self.delay_factor
            source_factor = self._node_factors.get(source, 1.0)
            destination_factor = self._node_factors.get(destination, 1.0)
        # Model off (no link record): the shared ``_NO_COST`` identity
        # ``send`` checks, and the bare propagation delay below.
        timing = _NO_COST
        if link is not None:
            spec = self._matrix_entry(source, destination)
            if spec is not None and spec.delay is not None:
                base = spec.delay
            timing = self._transmit(message.size_bytes, link, spec,
                                    source_factor, destination_factor)
        # The jitter draw is unconditional, so the sampled delay stream
        # does not depend on what is priced.  ``x * 1.0`` is exact.
        jitter = (config.jitter * stretch * self.simulator.rng.random()
                  if config.jitter else 0.0)
        delay = (base * stretch + jitter) * (source_factor * destination_factor)
        if timing is not _NO_COST:
            queue_wait, serialization, nic_wait = timing
            delay = nic_wait + queue_wait + serialization + delay
        self.simulator.schedule(
            delay, partial(self._deliver, message, link, window),
            message.delivery_label)
        return timing

    def _deliver(self, message: Message, link: Optional[_Link],
                 window) -> None:
        # The byte ledger resolves what the send charged (``link``); the
        # latency recorder and an attached observatory follow what is
        # configured *now* — the model may have been switched since the send.
        config = self.config
        observed = (config.bandwidth is not None
                    or config.delay_matrix is not None
                    or config.nic_bandwidth is not None
                    or self.record_delivery_latency)
        if not observed:
            window = None
        elif window is None and self.observatory is not None:
            window = self.observatory.window_of(
                message.source, message.destination, message.sent_at)
        handler = self._handlers.get(message.destination)
        if handler is None or (self._partitions and not self.is_reachable(
                message.source, message.destination)):
            self._ledger_drop(message, link, window, in_flight=True)
            return
        self.messages_delivered += 1
        if link is not None:
            link.delivered_bytes += message.size_bytes
            link.in_flight_bytes -= message.size_bytes
        if observed:
            latency = self.simulator.now - message.sent_at
            self.metrics.record_latency("net.delivery", latency)
            if window is not None:
                window.delivered_messages += 1
                window.latency_total += latency
                if latency > window.latency_max:
                    window.latency_max = latency
        handler(message)
