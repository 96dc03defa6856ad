"""The nemesis: a deterministic fault scheduler over the simulated cluster.

A *fault* is a frozen dataclass describing one adversity (a partition storm,
a crash, a latency spike, a live reshard) anchored at a simulated time; a
*schedule* is a plain list of faults.  The :class:`Nemesis` arms a schedule
against a :class:`ChaosEnv`, firing each fault through the public cluster
APIs (``Network.partition``/``heal``, ``Node.crash``/``recover``,
``LatticeKVS.reshard``) so protocols are stressed exactly the way a real
outage would stress them.

Design rules that make sweep/shrink work:

* Faults are **RNG-free** — their effect depends only on their fields and
  the deterministic cluster state, never on random draws.  Removing one
  fault from a schedule therefore cannot change what the remaining faults
  do, which is what makes greedy shrinking sound.
* Faults are **frozen dataclasses** — their ``repr`` is a copy-pasteable
  Python expression, and :func:`schedule_to_dicts` /
  :func:`schedule_from_dicts` round-trip a schedule through JSON for CI
  artifacts.
* Node groups are derived from **sorted ids**, never from set iteration
  order, so the event trace is identical under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

from repro.cluster import (
    FailureDomain,
    Network,
    NetworkConfig,
    Simulator,
    Topology,
)
from repro.cluster.metrics import LinkObservatory
from repro.cluster.node import Node
from repro.storage import LatticeKVS


@dataclass(slots=True, eq=False)
class _ActiveSkew:
    """Handle for one applied clock skew, retired by identity."""

    node_id: Hashable
    offset: float
    drift: float


class ChaosEnv:
    """Everything a fault can touch: simulator, network, KVS, crashable nodes.

    Also the scenario's black box recorder: fault activations
    (:attr:`fault_log`) and state-losing recoveries
    (:attr:`lose_state_events`) are logged so checkers can reason about what
    the nemesis did — e.g. exempting an acked write from the durability
    check when the acking replica later lost its state.  Link degradations
    are handles on the network's one list (``Network.degrade``): a fault
    never writes :class:`NetworkConfig`.
    """

    def __init__(self, seed: int, network_config: NetworkConfig,
                 kvs: Optional[LatticeKVS] = None, *,
                 simulator: Optional[Simulator] = None,
                 network: Optional[Network] = None) -> None:
        self.seed = seed
        self.simulator = simulator or Simulator(seed=seed)
        self.network = network or Network(self.simulator, network_config)
        # Diagnosis reads the link observatory: attach one before any
        # traffic, unless the caller's network already has its own.
        if self.network.observatory is None:
            self.network.observatory = LinkObservatory()
        self.kvs = kvs
        self.topology = Topology()
        #: Crash-fault targets by id: the KVS replicas plus registered
        #: workload nodes, rebuilt by :meth:`refresh_crashable`.
        self.crashable: dict[Hashable, Node] = {}
        self.fault_log: list[tuple[float, str]] = []
        self.lose_state_events: list[tuple[float, Hashable]] = []
        #: Ground-truth nemesis footprint, appended by each degrading fault
        #: *at fire time* (after index→target resolution), so it names the
        #: concrete subject a diagnosis must rediscover.  Subjects are
        #: ``("fabric",)`` for whole-network degradations (partitions,
        #: latency/drop/congestion spikes), ``("node", id)`` for node-local
        #: ones (crashes, slow nodes), ``("client", id)`` for client
        #: crashes.  Clock skews and reshards record nothing: neither is a
        #: path degradation an end-to-end observer could be asked to see.
        self.ground_truth: list[dict] = []
        # Active clock skews, retired by handle identity like the network's
        # link degradations.
        self._clock_skews: list[_ActiveSkew] = []
        #: High-water mark of any node's timer drift — skewed local clocks
        #: stretch cadences and RPC retry timers, so latency bounds scale
        #: with it.
        self.max_timer_drift = 1.0
        self._extra_crashable: dict[Hashable, Node] = {}
        #: Workload client nodes, kept *out* of ``crashable``: clients are
        #: only ever targeted by :class:`CrashClient`, never by
        #: :class:`CrashReplica` (whose ``pool="all"`` index arithmetic
        #: must not shift when a workload registers its clients).
        self.clients: dict[Hashable, Node] = {}
        if kvs is not None:
            self.refresh_crashable()

    # -- node registry -----------------------------------------------------------

    def register_crashable(self, nodes: Sequence[Node]) -> None:
        """Expose workload-owned nodes (Paxos, causal) to crash faults."""
        for node in nodes:
            self._extra_crashable[node.node_id] = node
        self.refresh_crashable()

    def register_clients(self, clients: Sequence[Node]) -> None:
        """Expose workload client nodes to :class:`CrashClient` faults."""
        for client in clients:
            self.clients[client.node_id] = client

    def refresh_crashable(self) -> None:
        """Rebuild :attr:`crashable` and the topology from live state.

        Called after a reshard: new replica generations must become
        crashable and removed ones must stop being recover targets.
        """
        self.crashable.clear()
        if self.kvs is not None:
            for node in self.kvs.all_nodes():
                self.crashable[node.node_id] = node
                self.topology.place(node.node_id, az=node.domain)
        self.crashable.update(self._extra_crashable)

    def crashable_ids(self) -> list[Hashable]:
        """Crash-fault targets, sorted for seed- and hashseed-stable picks."""
        return sorted(self.crashable, key=str)

    def partitionable_ids(self) -> list[Hashable]:
        """Every registered node (replicas, clients, protocol nodes), sorted."""
        return sorted(self.network.registered_nodes(), key=str)

    def client_ids(self) -> list[Hashable]:
        """Client-crash targets, sorted for seed- and hashseed-stable picks."""
        return sorted(self.clients, key=str)

    # -- bookkeeping used by faults ----------------------------------------------

    def log_fault(self, text: Optional[str]) -> None:
        if text is not None:  # a retirement whose target is gone says nothing
            self.fault_log.append((self.simulator.now, text))

    def record_ground_truth(self, kind: str, subject: tuple,
                            start: float, end: float) -> None:
        """Append one resolved fault footprint for diagnosis scoring."""
        self.ground_truth.append({
            "kind": kind, "subject": subject, "start": start, "end": end})

    def apply_clock_skew(self, node: Node, offset: float,
                         drift: float) -> _ActiveSkew:
        """Skew ``node``'s local clock: shift its reading, stretch its timers."""
        node.clock_offset += offset
        node.timer_drift *= drift
        skew = _ActiveSkew(node.node_id, offset, drift)
        self._clock_skews.append(skew)
        self.max_timer_drift = max(self.max_timer_drift, node.timer_drift)
        return skew

    def remove_clock_skew(self, skew: _ActiveSkew) -> None:
        """Undo exactly what :meth:`apply_clock_skew` applied; idempotent."""
        active = [other for other in self._clock_skews if other is not skew]
        if len(active) == len(self._clock_skews):
            return
        self._clock_skews = active
        node = self.crashable.get(skew.node_id)
        if node is not None:  # a reshard may have retired the node
            node.clock_offset -= skew.offset
            node.timer_drift /= skew.drift

    def recover_node(self, node_id: Hashable, lose_state: bool,
                     detail: str) -> Optional[str]:
        """Retire a crash: the line to log, or ``None`` for a node a reshard
        retired while it was down (it stays down rather than turn ghost)."""
        node = self.crashable.get(node_id)
        if node is None:
            return None
        node.recover(lose_state=lose_state)
        if lose_state:
            self.lose_state_events.append((self.simulator.now, node_id))
        return f"recover {node_id} ({detail})"

    def rpc_retry_allowance(self) -> float:
        """Worst extra latency transport RPC retries can add to an op.

        Scaled by the worst timer drift a clock-skew fault induced: a node
        with a slow local clock re-arms its retry timers late.
        """
        return (self.network.transport_config.rpc.retry_allowance
                * self.max_timer_drift)

    # -- global heal (the Jepsen "final reads" phase) ------------------------------

    def heal_everything(self) -> None:
        """Heal all partitions, restore link behaviour, recover every node.

        Recoveries keep state (``lose_state=False``): the point of the final
        phase is to let anti-entropy converge what survived, not to inject
        more loss.
        """
        self.network.heal_all()
        self.network.restore_all()
        self.refresh_crashable()
        for skew in self._clock_skews:  # each removal rebinds the list
            self.remove_clock_skew(skew)
        for node_id in self.crashable_ids():
            node = self.crashable[node_id]
            if not node.alive:
                node.recover(lose_state=False)
        for client_id in self.client_ids():
            client = self.clients[client_id]
            if not client.alive:
                # A returning client is always a *new* session: its volatile
                # session caches die with the old incarnation, whatever the
                # heal phase's keep-state policy for replicas.
                client.recover(lose_state=True)
        self.log_fault("heal_everything")


class Applied(NamedTuple):
    """One degradation a firing applied, and the closure that retires it.

    ``text`` is the fault-log line (``None`` logs nothing); ``subject`` the
    ground-truth footprint a diagnosis must rediscover (``None`` when an
    end-to-end observer could not be asked to see it); ``retire()`` undoes
    exactly this degradation and returns the line to log, or ``None`` when
    its target is gone — ``retire=None`` marks a one-way change with nothing
    to undo.  ``retire_label`` names the retirement's simulator event.
    """

    text: Optional[str]
    subject: Optional[tuple] = None
    retire: Optional[Callable[[], Optional[str]]] = None
    retire_label: str = ""


def _restore(env: ChaosEnv, handle, text: str) -> str:
    """Retire one link degradation by the handle ``Network.degrade``
    returned — a frozen fault can't store it, so the retirement carries it:
    a window outliving ``heal_everything`` can then never retire a *later*
    fault of equal value."""
    env.network.restore(handle)
    return text


def _pick(targets: Sequence[Hashable], index: int) -> Optional[Hashable]:
    """The fire-time target: ``index`` wraps over a sorted pool (``None`` if empty)."""
    return targets[index % len(targets)] if targets else None


@dataclass(frozen=True)
class Fault:
    """Base class: one adversity anchored at simulated time ``at``.

    A fault is declarative: :meth:`firings` says when it fires,
    :meth:`apply` what one firing degrades (one :class:`Applied` per
    degradation) and :attr:`span` how long that lasts.  :meth:`inject` is
    the only scheduler — it logs every ``Applied``, records its footprint
    and schedules its retirement ``span`` later — so a degradation that is
    applied but never retired cannot be written; no subclass overrides
    :meth:`inject` or :meth:`window`.
    """

    at: float

    #: The firing's event label, formatted with the fault's own fields.
    label = "fault"
    #: How long one firing's degradations last: the subclass's own
    #: ``duration`` / ``downtime`` field (0.0 for a one-way change).
    span = 0.0

    def firings(self) -> list[tuple[float, str]]:
        """``(time, event label)`` of each firing; by default one, at ``at``."""
        return [(self.at, self.label.format(**vars(self)))]

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        """Apply firing number ``firing`` now; ``()`` when it finds no target."""
        raise NotImplementedError  # pragma: no cover - abstract

    def inject(self, env: ChaosEnv) -> None:
        for firing, (time, label) in enumerate(self.firings()):
            env.simulator.schedule_at(
                time, lambda firing=firing: self._fire(env, firing),
                label=f"nemesis {label}")

    def _fire(self, env: ChaosEnv, firing: int) -> None:
        applied = self.apply(env, firing)
        now = env.simulator.now
        for item in applied:
            env.log_fault(item.text)
            if item.subject is not None:
                env.record_ground_truth(type(self).__name__, item.subject,
                                        now, now + self.span)
        for item in applied:
            if item.retire is not None:
                env.simulator.schedule(
                    self.span, lambda undo=item.retire: env.log_fault(undo()),
                    label=f"nemesis {item.retire_label}")

    def window(self) -> tuple[float, float]:
        """The (start, end) interval during which this fault is active."""
        last = max((time for time, _ in self.firings()), default=self.at)
        return (self.at, last + self.span)

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["kind"] = type(self).__name__
        return payload


#: Partition storm flavors: a symmetric striped cut, a one-directional cut
#: (A→B severed, B→A flowing), and a striped cut with one straddling node.
STORM_FLAVORS = ("striped", "asymmetric", "bridge")


@dataclass(frozen=True)
class PartitionStorm(Fault):
    """Repeated install/heal waves of a striped two-way partition.

    Each wave splits the sorted registered node ids into two interleaved
    groups (stripe offset rotates with ``wave + pivot`` so successive waves
    cut along different lines), holds the cut for ``duration``, then heals.
    Striping guarantees replicas of the same shard usually land on opposite
    sides, which is the interesting cut for convergence protocols.

    ``flavor`` selects the cut's shape:

    * ``"striped"`` — the symmetric two-way cut above;
    * ``"asymmetric"`` — the same stripes, but only A→B traffic is severed
      (``Partition(oneway=True)``): acks flow while the data they
      acknowledge cannot, the classic half-open-link failure;
    * ``"bridge"`` — one node (rotating with ``wave + pivot``) is listed in
      *both* groups, so it keeps connectivity to everyone while the pure
      sides stay cut — Jepsen's bridge nemesis, the cut a naive
      majority-reachability check never notices.
    """

    duration: float = 40.0
    waves: int = 1
    gap: float = 10.0
    pivot: int = 0
    flavor: str = "striped"

    span = property(lambda self: self.duration)

    def __post_init__(self) -> None:
        if self.flavor not in STORM_FLAVORS:
            raise ValueError(
                f"flavor must be one of {STORM_FLAVORS}, got {self.flavor!r}")

    def firings(self) -> list[tuple[float, str]]:
        return [(self.at + wave * (self.duration + self.gap),
                 f"partition-wave-{wave}") for wave in range(self.waves)]

    def apply(self, env: ChaosEnv, wave: int) -> Sequence[Applied]:
        ids = env.partitionable_ids()
        offset = (wave + self.pivot) % 2
        group_a = [node_id for i, node_id in enumerate(ids) if i % 2 == offset]
        group_b = [node_id for i, node_id in enumerate(ids) if i % 2 != offset]
        if not group_a or not group_b:
            return ()
        bridge = None
        if self.flavor == "bridge" and len(ids) >= 3:
            # Rotates deterministically over the sorted ids, so successive
            # waves straddle the cut at different nodes.
            bridge = ids[(wave + self.pivot) % len(ids)]
            if bridge not in group_a:
                group_a.append(bridge)
            if bridge not in group_b:
                group_b.append(bridge)
        partition = env.network.partition(
            group_a, group_b, oneway=self.flavor == "asymmetric")
        detail = f" bridge={bridge}" if bridge is not None else ""

        def heal() -> str:
            env.network.heal(partition)
            return f"heal wave {wave}"

        return [Applied(f"partition wave {wave} ({self.flavor}): "
                        f"{len(group_a)}|{len(group_b)} nodes{detail}",
                        ("fabric",), heal, f"heal-wave-{wave}")]


@dataclass(frozen=True)
class CrashReplica(Fault):
    """Crash one node for ``downtime``, optionally losing volatile state.

    The target is picked by ``index`` into the sorted crashable ids at fire
    time — stable for a given cluster, and still meaningful after a reshard
    changed the node population.  ``pool`` widens the target set from KVS
    replicas to every crashable node (Paxos acceptors, causal peers);
    ``lose_state`` is only honoured for KVS replicas, because acceptor
    promises model durable state that fail-recover must not erase.
    """

    index: int = 0
    downtime: float = 60.0
    lose_state: bool = False
    pool: str = "kvs"

    label = "crash-{index}"
    span = property(lambda self: self.downtime)

    def _targets(self, env: ChaosEnv) -> list[Hashable]:
        if self.pool == "kvs" and env.kvs is not None:
            return sorted((n.node_id for n in env.kvs.all_nodes()), key=str)
        return env.crashable_ids()

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        env.refresh_crashable()
        node_id = _pick(self._targets(env), self.index)
        if node_id is None:
            return ()
        lose_state = self.lose_state and self.pool == "kvs"
        detail = f"lose_state={lose_state}"
        env.crashable[node_id].crash()
        return [Applied(f"crash {node_id} ({detail})", ("node", node_id),
                        partial(env.recover_node, node_id, lose_state, detail),
                        f"recover-{node_id}")]


@dataclass(frozen=True)
class CrashClient(Fault):
    """Crash one workload client mid-operation, then bring back a stranger.

    The target is picked by ``index`` into the sorted registered client ids
    at fire time.  Crashing a :class:`~repro.chaos.workloads.RecordingKVSClient`
    freezes its in-flight ops as ``PENDING`` in the history (the request may
    be on the wire; the outcome is permanently indeterminate — Jepsen
    ``:info``), and recovery is always ``lose_state=True``: the replacement
    identity reuses the node id but starts a *fresh session*, inheriting
    neither the read-your-writes nor the monotonic-reads cache (pinned by
    ``KVSClient.reset_state``).  Ops the plan fires during the downtime are
    simply not issued — a dead client is silent, not failing.
    """

    index: int = 0
    downtime: float = 40.0

    label = "crash-client-{index}"
    span = property(lambda self: self.downtime)

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        node_id = _pick(env.client_ids(), self.index)
        if node_id is None or not env.clients[node_id].alive:
            return ()  # no client, or already down (overlapping client crashes)
        env.clients[node_id].crash()

        def recover() -> Optional[str]:
            client = env.clients.get(node_id)
            if client is None or client.alive:
                return None
            client.recover(lose_state=True)
            env.lose_state_events.append((env.simulator.now, node_id))
            return f"recover-client {node_id} (new session)"

        return [Applied(f"crash-client {node_id}", ("client", node_id),
                        recover, f"recover-client-{node_id}")]


@dataclass(frozen=True)
class DomainOutage(Fault):
    """Crash every node of one availability zone, then recover it.

    Every crashable member of the zone goes down when the fault fires,
    like :class:`CrashReplica`'s target.  Recovery goes through the same retirement guard as
    :class:`CrashReplica`: a node a reshard retired while the domain was
    down stays down, instead of being resurrected into a ghost replica
    gossiping at its likewise-retired peers forever.
    """

    domain: str = "az-1"
    downtime: float = 60.0

    label = "outage-{domain}"
    span = property(lambda self: self.downtime)

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        env.refresh_crashable()
        down = [node_id for node_id in env.topology.nodes_in(
                    FailureDomain.AVAILABILITY_ZONE, self.domain)
                if node_id in env.crashable]
        for node_id in down:
            env.crashable[node_id].crash()
        detail = f"outage {self.domain}"
        # One log line for the domain, then one footprint and one
        # retirement per node it took down.
        return [Applied(f"{detail}: {len(down)} nodes")] + [
            Applied(None, ("node", node_id),
                    partial(env.recover_node, node_id, False, detail),
                    f"outage-recover-{node_id}")
            for node_id in down]


@dataclass(frozen=True)
class LatencySpike(Fault):
    """Multiply link delay by ``factor`` for ``duration``, then restore.

    Overlapping spikes compose multiplicatively and restore independently:
    the effective delay is always refolded from the config and the handles
    *currently active* on the network, never from saved-at-start values
    (which would let one spike's restore re-impose another's degradation).

    Delays pinned by a :class:`~repro.cluster.DelayMatrix` stretch by the
    same factor: a spike models fabric-wide RTT inflation — bufferbloat,
    routing flaps — which hits long-haul paths too.  Degrading every link
    by one factor is also what keeps the spike *fabric*-shaped for the
    tomography rules; bandwidth squeezes (:class:`Congestion`) remain the
    mechanism that loads the thin inter-region pipes specifically.
    """

    duration: float = 40.0
    factor: float = 6.0

    label = "latency-spike"
    span = property(lambda self: self.duration)

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        handle = env.network.degrade(delay_factor=self.factor)
        return [Applied(f"latency x{self.factor}", ("fabric",),
                        partial(_restore, env, handle, "latency restored"),
                        "latency-restore")]


@dataclass(frozen=True)
class DropSpike(Fault):
    """Raise the message drop probability for ``duration``, then restore.

    Overlapping spikes compose as the max of the active rates (see
    :class:`LatencySpike` for why restore is refold-from-active).
    """

    duration: float = 40.0
    drop_rate: float = 0.4

    label = "drop-spike"
    span = property(lambda self: self.duration)

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        handle = env.network.degrade(drop_rate=self.drop_rate)
        return [Applied(f"drop_rate -> {env.network.drop_rate}", ("fabric",),
                        partial(_restore, env, handle, "drop_rate restored"),
                        "drop-restore")]


@dataclass(frozen=True)
class Congestion(Fault):
    """Squeeze every link's bandwidth by ``factor`` for ``duration``.

    The transmission-model sibling of :class:`LatencySpike`: instead of
    stretching propagation delay, it divides the configured link bandwidth,
    so large envelopes (digest-repair parcels, fan-out bursts) serialize
    slowly and queue behind each other while small control traffic barely
    notices.  RNG-free and refold-from-active like the other spikes:
    overlapping congestions compose multiplicatively and restore
    independently, and :class:`SlowNode` factors compose multiplicatively
    on top (a slow node's links serialize slower still).  On a config with
    the bandwidth model off it is a logged no-op.
    """

    duration: float = 40.0
    factor: float = 8.0

    label = "congestion"
    span = property(lambda self: self.duration)

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        handle = env.network.degrade(squeeze=self.factor)
        return [Applied(f"congestion /{self.factor}", ("fabric",),
                        partial(_restore, env, handle, "congestion restored"),
                        "congestion-restore")]


@dataclass(frozen=True)
class SlowNode(Fault):
    """Degrade every link touching one node by ``factor``, then restore.

    The gray-failure sibling of :class:`LatencySpike`: instead of slowing
    the whole fabric, one straggler (picked by ``index`` into the sorted
    registered ids at fire time) pays ``factor``× delay on all its inbound
    and outbound links — the classic slow-disk/overloaded-VM replica that
    stays technically alive.  Overlapping slow-node faults compose
    multiplicatively per node (two faults on one node stack; faults on both
    endpoints of a link multiply), and the CALM latency bound scales with
    the worst active pair.
    """

    index: int = 0
    duration: float = 40.0
    factor: float = 4.0

    label = "slow-node-{index}"
    span = property(lambda self: self.duration)

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        node_id = _pick(env.partitionable_ids(), self.index)
        if node_id is None:
            return ()
        handle = env.network.degrade(delay_factor=self.factor, node=node_id)
        return [Applied(f"slow-node {node_id} x{self.factor}", ("node", node_id),
                        partial(_restore, env, handle,
                                f"slow-node {node_id} restored"),
                        f"slow-node-restore-{self.index}")]


@dataclass(frozen=True)
class ClockSkew(Fault):
    """Skew one node's local clock for ``duration``, then restore.

    ``offset`` shifts what the node's ``clock()`` reads; ``drift`` stretches
    every timer the node arms while skewed (> 1 is a slow local clock firing
    cadences late — gossip rounds, RPC retries and timeouts).  The
    target is picked by ``index`` into the sorted crashable ids at fire
    time.  Restore subtracts/divides exactly what was applied, so
    overlapping skews on one node compose and restore independently.
    """

    index: int = 0
    duration: float = 60.0
    offset: float = 15.0
    drift: float = 1.25

    label = "clock-skew-{index}"
    span = property(lambda self: self.duration)

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        env.refresh_crashable()
        node_id = _pick(env.crashable_ids(), self.index)
        if node_id is None:
            return ()
        skew = env.apply_clock_skew(env.crashable[node_id],
                                    self.offset, self.drift)

        def restore() -> str:
            env.refresh_crashable()
            env.remove_clock_skew(skew)
            return f"clock-skew {node_id} restored"

        # No footprint: a skewed clock is not a path degradation an
        # end-to-end observer could be asked to see.
        return [Applied(f"clock-skew {node_id} offset={self.offset} "
                        f"drift={self.drift}", subject=None, retire=restore,
                        retire_label=f"clock-skew-restore-{self.index}")]


@dataclass(frozen=True)
class ReshardUnderFire(Fault):
    """Fire ``LatticeKVS.reshard`` while other faults are live."""

    new_shard_count: int = 4

    label = "reshard-{new_shard_count}"

    def apply(self, env: ChaosEnv, firing: int) -> Sequence[Applied]:
        if env.kvs is None:
            return ()
        report = env.kvs.reshard(self.new_shard_count)
        env.refresh_crashable()
        # Nothing to retire: a reshard is growth, not a degradation.
        return [Applied(f"reshard {report!r}", subject=None, retire=None)]


#: Fault kinds recognised by :func:`schedule_from_dicts`.
FAULT_KINDS = {
    cls.__name__: cls
    for cls in (PartitionStorm, CrashReplica, CrashClient, DomainOutage,
                LatencySpike, DropSpike, Congestion, SlowNode, ClockSkew,
                ReshardUnderFire)
}


def schedule_to_dicts(schedule: Sequence[Fault]) -> list[dict]:
    return [fault.to_dict() for fault in schedule]


def schedule_from_dicts(payloads: Sequence[dict]) -> list[Fault]:
    schedule = []
    for payload in payloads:
        payload = dict(payload)
        kind = payload.pop("kind")
        schedule.append(FAULT_KINDS[kind](**payload))
    return schedule


class Nemesis:
    """Arms a fault schedule against an environment."""

    def __init__(self, env: ChaosEnv, schedule: Sequence[Fault]) -> None:
        self.env = env
        self.schedule = list(schedule)

    def start(self) -> None:
        for fault in self.schedule:
            fault.inject(self.env)

    def end_time(self) -> float:
        """When the last fault's window closes (0.0 for an empty schedule)."""
        return max((fault.window()[1] for fault in self.schedule), default=0.0)
