"""History and state checkers: the judgement half of the chaos harness.

Each checker returns a :class:`CheckResult` with human-readable failure
strings instead of raising, so a scenario can run every checker and report
all violations at once (and the sweep can aggregate them across seeds).

The four checker families the roadmap's regression net is built from:

* **Convergence** — after heal + quiescence every replica of every shard
  holds identical state and no key sits on a shard the ring no longer
  routes to (no resurrection after a reshard).
* **Session guarantees** — per client: read-your-writes (a read includes
  every write the same session issued earlier) and monotonic reads (later
  reads never observe less than earlier ones, in lattice order).
* **Causal safety** — per receiver: FIFO per origin and happens-before
  delivery order; plus read-your-writes for a node's own broadcasts.
* **Paxos single-decree safety** — no two replicas decide different values
  for the same slot, and applied logs are pairwise prefix-consistent.
* **CALM coordination-freeness** — the static cross-check (monotone cart
  handlers are compiled coordination-free) and the dynamic one (monotone
  ops that completed did so within a message-delay bound — they never
  waited out a partition, a quorum or a heal).

Durability nuance: an acked KVS write is pinned to the replica that acked
it (the ack payload names it).  If the nemesis later wiped that replica's
volatile state (``lose_state=True``) before the delta could propagate, the
write may legitimately vanish — those ops are exempted, Jepsen-style,
rather than reported as false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Hashable, Iterable, Optional

from repro.chaos.history import History, Op
from repro.chaos.nemesis import ChaosEnv
from repro.core.monotonicity import CoordinationMechanism, analyze_program
from repro.lattices import VectorClock
from repro.lattices.base import Lattice
from repro.storage.antientropy import PROBE_ROUNDS, DigestTree


@dataclass
class CheckResult:
    """One checker's verdict."""

    name: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} violations"
        return f"CheckResult({self.name}: {status})"


#: Actions the CALM checker treats as monotone (coordination-free by CALM).
MONOTONE_ACTIONS = frozenset({"put", "get", "add", "remove", "seal", "bcast"})


# -- canonical state digests (hashseed-independent) -------------------------------


def canonicalize(value) -> str:
    """A ``PYTHONHASHSEED``-independent canonical repr of a lattice value.

    Plain ``repr`` of set-backed lattices leaks salted iteration order;
    sorting every unordered constituent makes digests comparable across
    processes, which the cross-hashseed determinism tests rely on.
    """
    if value is None:
        return "None"
    added = getattr(value, "added", None)
    removed = getattr(value, "removed", None)
    if added is not None and removed is not None:
        return (f"2P(added={sorted(map(repr, added))}, "
                f"removed={sorted(map(repr, removed))})")
    elements = getattr(value, "elements", None)
    if elements is not None and isinstance(elements, frozenset):
        return f"Set({sorted(map(repr, elements))})"
    items = getattr(value, "items", None)
    if callable(items):
        inner = sorted((repr(k), canonicalize(v)) for k, v in items())
        return f"Map({inner})"
    counts = getattr(value, "counts", None)
    if counts is not None:
        return f"Counter({sorted((repr(k), v) for k, v in counts.items())})"
    return repr(value)


def state_digest(env: ChaosEnv) -> str:
    """Canonical digest of every replica's store, sorted shard by shard."""
    lines = []
    for shard_index, shard in enumerate(env.kvs.shards):
        for replica in sorted(shard, key=lambda r: str(r.node_id)):
            entries = sorted((repr(key), canonicalize(value))
                             for key, value in replica.store.items())
            lines.append(f"shard {shard_index} {replica.node_id}: {entries}")
    return "\n".join(lines)


# -- convergence ------------------------------------------------------------------


def check_convergence(env: ChaosEnv) -> CheckResult:
    """All replicas of each shard agree, and no key is misplaced."""
    result = CheckResult("convergence")
    kvs = env.kvs
    for shard_index, shard in enumerate(kvs.shards):
        keys = sorted({key for replica in shard for key in replica.store}, key=repr)
        for key in keys:
            if kvs.shard_for(key) != shard_index:
                result.failures.append(
                    f"key {key!r} resurrected on shard {shard_index}, "
                    f"ring routes it to shard {kvs.shard_for(key)}")
            values = [replica.store.get(key) for replica in shard]
            first = values[0]
            if any(value is None or value != first for value in values):
                rendered = [canonicalize(value) for value in values]
                result.failures.append(
                    f"shard {shard_index} diverges on {key!r}: {rendered}")
    return result


# -- session guarantees -----------------------------------------------------------


def check_session_guarantees(history: History) -> CheckResult:
    """Read-your-writes and monotonic reads, per client, from the history.

    Read-your-writes is judged in *invocation* order (the session's write
    cache is populated when the put is issued, so any later-invoked read
    must include it).  Monotonic reads are judged in *completion* order:
    two pipelined reads of one key may have their replies reordered by the
    network, and the client's guarantee — each returned value includes
    everything previously returned — is a property of the sequence of
    returns, not of the sequence of requests.

    A *session* is one client incarnation, not one node id: a client that
    crashed and recovered is a replacement identity whose caches started
    empty, so ops are grouped by ``(client, incarnation)`` and neither
    guarantee spans the crash boundary.  (That the replacement genuinely
    drops the caches is pinned by the crash-boundary regression test.)
    """
    result = CheckResult("session-guarantees")
    sessions: dict[tuple, list[Op]] = {}
    for op in history.ops:
        key = (str(op.client), op.info.get("incarnation", 0))
        sessions.setdefault(key, []).append(op)
    for (client, _incarnation), ops in sorted(sessions.items()):
        written: dict[Hashable, Lattice] = {}
        reads: dict[Hashable, list] = {}
        for op in ops:
            if op.action in ("put", "add", "remove", "seal") and op.value is not None:
                current = written.get(op.key)
                written[op.key] = op.value if current is None else current.merge(op.value)
            elif op.action == "get" and op.ok:
                expected = written.get(op.key)
                if expected is not None:
                    if op.result is None or not expected.leq(op.result):
                        result.failures.append(
                            f"read-your-writes: {op.describe()} missing own "
                            f"writes {canonicalize(expected)}")
                reads.setdefault(op.key, []).append(op)
        for key, key_reads in sorted(reads.items(), key=lambda kv: repr(kv[0])):
            previous = None
            for op in sorted(key_reads, key=lambda o: o.completed_at):
                if previous is not None:
                    if op.result is None:
                        # A read regressing from a value to "missing" is the
                        # starkest non-monotone read — never skip it.
                        result.failures.append(
                            f"monotonic reads: {op.describe()} observed None "
                            f"after {canonicalize(previous)}")
                        continue
                    if not previous.leq(op.result):
                        result.failures.append(
                            f"monotonic reads: {op.describe()} observed "
                            f"{canonicalize(op.result)} after "
                            f"{canonicalize(previous)}")
                if op.result is not None:
                    previous = op.result
    return result


# -- causal safety ----------------------------------------------------------------


def check_causal(deliveries: dict[Hashable, list]) -> CheckResult:
    """FIFO-per-origin + happens-before order of every node's deliveries."""
    result = CheckResult("causal-safety")
    for node_id, delivered in sorted(deliveries.items(), key=lambda kv: str(kv[0])):
        clock: dict[Hashable, int] = {}
        for message in delivered:
            if clock.get(message.origin, 0) != message.sequence - 1:
                result.failures.append(
                    f"{node_id}: FIFO gap from {message.origin} — delivered "
                    f"seq {message.sequence} after seq {clock.get(message.origin, 0)}")
            if not message.depends_on.leq(VectorClock(dict(clock))):
                result.failures.append(
                    f"{node_id}: causal violation — {message.origin}#"
                    f"{message.sequence} delivered before its dependencies")
            clock[message.origin] = max(clock.get(message.origin, 0),
                                        message.sequence)
        # Read-your-writes: a node delivers its own broadcasts immediately,
        # so its own-origin subsequence must be exactly 1..k in order.
        own = [m.sequence for m in delivered if m.origin == node_id]
        if own != list(range(1, len(own) + 1)):
            result.failures.append(
                f"{node_id}: own broadcasts delivered out of order: {own}")
    return result


# -- Paxos safety -----------------------------------------------------------------


def check_paxos_safety(replicas: dict, applied: dict[Hashable, list]) -> CheckResult:
    """No two replicas decide different values for the same slot."""
    result = CheckResult("paxos-safety")
    chosen_by_slot: dict[int, dict] = {}
    for replica_id, replica in sorted(replicas.items(), key=lambda kv: str(kv[0])):
        for slot, value in replica.chosen.items():
            chosen_by_slot.setdefault(slot, {})[replica_id] = value
    for slot, per_replica in sorted(chosen_by_slot.items()):
        values = {repr(value) for value in per_replica.values()}
        if len(values) > 1:
            result.failures.append(
                f"slot {slot} decided differently across replicas: {per_replica}")
    applied_lists = [entries for _, entries in
                     sorted(applied.items(), key=lambda kv: str(kv[0]))]
    for i in range(len(applied_lists)):
        for j in range(i + 1, len(applied_lists)):
            for (slot_a, value_a), (slot_b, value_b) in zip(applied_lists[i],
                                                            applied_lists[j]):
                if slot_a != slot_b or value_a != value_b:
                    result.failures.append(
                        f"applied logs diverge: {(slot_a, value_a)} vs "
                        f"{(slot_b, value_b)}")
                    break
    return result


# -- CALM coordination-freeness ---------------------------------------------------


def calm_latency_bound(env: ChaosEnv, hops: int = 6, slack: float = 2.0) -> float:
    """An upper bound on any monotone op's completion latency.

    A coordination-free op costs a handful of message legs (request, an
    optional reshard relay, reply) — never a quorum wait, a heal or a
    gossip round.  Scaled by the worst link delay the nemesis induced,
    plus the transport's RPC retry allowance *only if a retry actually
    fired somewhere this run*: an op whose first attempt was dropped
    legitimately completes one (capped, clock-drift-stretched) retry
    timeout later without having coordinated with anyone — but a run in
    which no retry fired keeps the tight bound, so a monotone op that
    waits out a gossip round or a quorum in a fault-free scenario is
    still caught.

    With the transmission model on, each hop additionally pays the
    queueing model's observed worst case (serialization plus FIFO wait
    behind earlier envelopes — ``Network.max_transmission_delay``) instead
    of pretending bytes are free: an op stuck behind a congested full-store
    sync is slow, not coordinating.  With the model off that term is 0.0
    and the bound is the old flat hop estimate.
    """
    allowance = 0.0
    if env.network.metrics.counter("transport.rpc_retries"):
        allowance = env.rpc_retry_allowance()
    per_hop = env.network.max_link_delay + env.network.max_transmission_delay
    return hops * per_hop + slack + allowance


def check_calm_coordination_free(history: History, env: ChaosEnv,
                                 bound: Optional[float] = None) -> CheckResult:
    """Monotone ops never block on the nemesis; the cart compiles CALM-clean.

    Dynamic half: partitions and drops in this simulator *lose* messages
    rather than delaying them, so a monotone op either completes within a
    few message delays or never — any completed op whose latency exceeds
    the bound must have waited on coordination, which CALM says it never
    needs.  Static half: every shopping-cart handler is monotone and must
    compile to ``NONE`` — the serializable checkout included — while the
    covid program's non-monotone ``vaccinate`` must still pay for a
    consensus log.
    """
    result = CheckResult("calm-coordination-free")
    if bound is None:
        bound = calm_latency_bound(env)
    for op in history.completed():
        if op.action not in MONOTONE_ACTIONS:
            continue
        if op.latency is not None and op.latency > bound:
            result.failures.append(
                f"monotone op blocked: {op.describe()} took "
                f"{op.latency:.1f} > bound {bound:.1f}")
    result.failures.extend(_static_calm_failures())
    return result


@lru_cache(maxsize=1)
def _static_calm_failures() -> tuple[str, ...]:
    """Cached: the verdict depends on the shipped apps, not on the run."""
    from repro.apps.covid import build_covid_program
    from repro.apps.shopping_cart import build_cart_program

    failures = []
    cart = analyze_program(build_cart_program()).handlers
    for handler in ("add_item", "remove_item", "sealed_checkout", "checkout"):
        # Every cart handler's effects are lattice merges, so CALM proves
        # the whole cart coordination-free — including the checkout the
        # developer over-specified as serializable.
        if not cart[handler].coordination_free:
            failures.append(
                f"CALM cross-check: monotone handler {handler!r} assigned "
                f"{cart[handler].mechanism.value}")
    # The contrast case: the covid app's non-monotone vaccinate endpoint
    # must still pay for a consensus log (pinned by the consistency tests).
    covid = analyze_program(build_covid_program()).handlers
    if covid["vaccinate"].mechanism is not CoordinationMechanism.CONSENSUS_LOG:
        failures.append(
            "CALM cross-check: non-monotone vaccinate should require a "
            f"consensus log, got {covid['vaccinate'].mechanism.value}")
    return tuple(failures)


# -- gossip byte budget -----------------------------------------------------------


def check_gossip_byte_budget(env: ChaosEnv) -> CheckResult:
    """Delta gossip stays O(Δ) — *during* partition storms, not just at rest.

    Driven by the shared :class:`~repro.cluster.metrics.MetricsRegistry`, in
    which :class:`~repro.storage.kvs.ShardNode` ledgers every stamp (one
    mark per peer) and every shipped gossip entry (fresh, retransmit), and by
    each replica's per-peer watermarks.  The budget:

    * **fresh entries ≤ marks** — a first shipment may only carry what was
      stamped for that peer; folding unconfirmed backlog or untouched store
      keys into fresh windows (the cumulative-payload regression) breaks
      this immediately, however brief the storm;
    * **repair entries ≤ divergence** — digest-tree anti-entropy may only
      ship keys that actually diverged: every repaired entry is licensed
      either by a mark (a change the protocol was still owed) or by a
      state-losing recovery (each lost entry licenses a push and a pull per
      replica pair).  A repair path that ships converged ranges — the old
      periodic full-store sync in disguise — breaks this at any store size;
    * **digest-tree purity** — every live replica's incrementally-maintained
      tree must equal a from-scratch rebuild over its store: trees are pure
      functions of content, never of operation order or hash seed;
    * **post-heal quiescence** — after the final heal + settle, every live
      replica has ``confirmed == shipped`` toward every peer, holds no
      window ``ahead`` of a gap, and has nothing queued in its transport:
      retransmission converged instead of looping.
    """
    result = CheckResult("gossip-byte-budget")
    kvs = env.kvs
    if kvs is None:
        return result
    metrics = env.network.metrics
    fresh = metrics.counter("kvs.gossip.fresh_entries")
    marks = metrics.counter("kvs.gossip.dirty_marks")
    if fresh > marks:
        result.failures.append(
            f"O(Δ) violated: {fresh:.0f} fresh delta entries shipped for only "
            f"{marks:.0f} dirty marks — delta rounds are shipping more than "
            f"their Δ")
    repair = metrics.counter("kvs.antientropy.repair_entries")
    lost = metrics.counter("kvs.antientropy.lost_entries")
    # Push + pull per replica pair: a lost entry may be shipped once in
    # each direction by concurrent exchanges on both sides.
    repair_budget = marks + 2 * kvs.replication_factor * lost
    if repair > repair_budget:
        result.failures.append(
            f"O(divergence) violated: {repair:.0f} anti-entropy repair "
            f"entries shipped against a divergence budget of "
            f"{repair_budget:.0f} ({marks:.0f} dirty marks, {lost:.0f} "
            f"state-loss entries) — repair is shipping converged ranges")
    for replica in kvs.all_nodes():
        if not replica.alive:
            continue
        if replica.tree != DigestTree.from_store(replica.store):
            result.failures.append(
                f"{replica.node_id}: digest tree diverged from its store — "
                f"the incremental maintenance missed an update")
    if env.network.config.drop_rate:
        # With baseline loss the final acks may legitimately be in flight
        # or lost at measure time; only the O(Δ) ledger applies.
        return result
    for replica in kvs.all_nodes():
        if not replica.alive:
            continue
        open_peers = [str(peer) for peer, sync in replica._sync.items()
                      if sync.confirmed != sync.shipped or sync.ahead]
        if open_peers:
            result.failures.append(
                f"{replica.node_id}: gossip toward {open_peers} never "
                f"drained after heal (unconfirmed shipments or an unfilled "
                f"gap)")
        queued = replica.transport.queued_parcels()
        if queued:
            result.failures.append(
                f"{replica.node_id}: {queued} parcels still queued in the "
                f"transport after quiescence")
    return result


def check_link_byte_conservation(env: ChaosEnv) -> CheckResult:
    """Every byte the network accepted is accounted for, on every link.

    The transmission model keeps a per-link ledger
    (:meth:`~repro.cluster.network.Network.link_byte_stats`); this checker
    asserts its conservation invariant after the scenario's final heal +
    settle: ``enqueued == delivered + dropped + in_flight`` with
    ``in_flight >= 0`` on every link.  ``in_flight`` need not be zero — a
    settled cluster's cadences keep re-arming, so the final tick's gossip
    may legitimately still be on the wire — but every such byte must be
    balanced.  Partitions, drop lotteries, congestion squeezes and
    mid-flight squeeze clears all reshape *where* bytes land (delivered vs
    dropped), never whether they are counted.  Trivially green while the
    model is off (no ledger exists).
    """
    result = CheckResult("link-byte-conservation")
    for link, stat in sorted(env.network.link_byte_stats().items(),
                             key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        balance = (stat["delivered_bytes"] + stat["dropped_bytes"]
                   + stat["in_flight_bytes"])
        if stat["enqueued_bytes"] != balance:
            result.failures.append(
                f"{link[0]}->{link[1]}: {stat['enqueued_bytes']} B enqueued "
                f"but {stat['delivered_bytes']} delivered + "
                f"{stat['dropped_bytes']} dropped + "
                f"{stat['in_flight_bytes']} in flight = {balance} B")
        if stat["in_flight_bytes"] < 0:
            result.failures.append(
                f"{link[0]}->{link[1]}: in_flight_bytes went negative "
                f"({stat['in_flight_bytes']}) — something resolved a "
                f"message it never transmitted")
    return result


def _exempt(op: Op, env: ChaosEnv) -> bool:
    """True when the acking replica later lost state: outcome indeterminate."""
    replica = op.info.get("replica")
    return any(node_id == replica and when >= op.invoked_at
               for when, node_id in env.lose_state_events)


# -- bounded staleness ------------------------------------------------------------

#: History actions that write a lattice value into the KVS.
_KVS_WRITE_ACTIONS = frozenset({"put", "add", "remove", "seal"})


def staleness_bound(env: ChaosEnv, full_sync_every: int,
                    gossip_interval: float, slack: float = 2.0) -> float:
    """Ticks within which every replica must observe an acked write.

    Delta gossip usually converges within a round or two, but its hard
    backstop is the periodic digest-tree anti-entropy round: at worst a
    write lands right after one round starts and waits ``full_sync_every``
    gossip rounds for the next — stretched by the worst timer drift a
    clock-skew fault induced, since a skewed replica fires its gossip
    cadence late.  Unlike the old full-store sync, which arrived in a
    single (congested) envelope, a digest reconciliation is a *recursion*:
    up to ``PROBE_ROUNDS`` request/reply round trips down the tree (root
    probe through the final pull) before the repair entries make their own
    one-way trip.  Each leg is priced by the worst link delay plus the
    queueing model's observed worst transmission; the whole exchange adds
    ``(2 * PROBE_ROUNDS + 1)`` legs on top of the cadence horizon.  The
    RPC retry allowance covers a retried leg (the write's delivery to the
    acking replica, or any probe of the exchange), and one final
    round-trip delivery leg covers the repair round's ack.
    """
    sync_horizon = full_sync_every * gossip_interval * env.max_timer_drift
    leg = env.network.max_link_delay + env.network.max_transmission_delay
    recursion = (2 * PROBE_ROUNDS + 1) * leg
    delivery = 2 * leg
    return sync_horizon + env.rpc_retry_allowance() + recursion + delivery + slack


def check_bounded_staleness(history: History, env: ChaosEnv, *,
                            full_sync_every: int, gossip_interval: float,
                            bound: Optional[float] = None) -> CheckResult:
    """Every replica observes a key's acked writes within the gossip bound.

    Convergence alone allows all replicas to agree on a *stale* value; this
    checker pins freshness: for every acked write, once ``bound`` ticks
    have elapsed since both the write's completion and the final heal (the
    staleness clock pauses while the nemesis holds links down — Jepsen's
    heal-point convention), every current replica of the key's shard must
    hold a value that *includes* it (lattice ``leq``, not equality).
    Writes whose acking replica later lost volatile state are exempt, like
    the cart checker's durability exemptions; writes whose bound has not
    yet elapsed at check time are simply not judged.
    """
    result = CheckResult("bounded-staleness")
    kvs = env.kvs
    if kvs is None or not gossip_interval:
        return result
    if bound is None:
        bound = staleness_bound(env, full_sync_every, gossip_interval)
    heal = max((when for when, text in env.fault_log
                if text == "heal_everything"), default=0.0)
    now = env.simulator.now
    expected: dict[Hashable, Lattice] = {}
    for op in history.ops:
        if op.action not in _KVS_WRITE_ACTIONS or not op.ok or op.value is None:
            continue
        if _exempt(op, env):
            continue
        if max(op.completed_at, heal) + bound > now:
            continue  # the scenario has not run long enough to judge this write
        current = expected.get(op.key)
        expected[op.key] = op.value if current is None else current.merge(op.value)
    for key in sorted(expected, key=repr):
        value = expected[key]
        for replica in kvs.replicas_for(key):
            held = replica.store.get(key)
            if held is None or not value.leq(held):
                result.failures.append(
                    f"stale replica: {replica.node_id} holds "
                    f"{canonicalize(held)} for {key!r} beyond the "
                    f"{bound:.0f}-tick staleness bound — acked writes "
                    f"{canonicalize(value)} never arrived")
    return result


# -- cart durability --------------------------------------------------------------


def check_cart_integrity(history: History, env: ChaosEnv,
                         cart_workload) -> CheckResult:
    """Acked cart ops are durable; sealed orders match their manifests."""
    result = CheckResult("cart-integrity")
    kvs = env.kvs
    removed_items = {(op.info.get("session"), op.info.get("item"))
                     for op in history.ops_for(action="remove")}
    for session in cart_workload.sessions:
        cart = kvs.get_merged(cart_workload.cart_key(session))
        live = frozenset(cart.live) if cart is not None else frozenset()
        tombstones = frozenset(cart.removed) if cart is not None else frozenset()
        for op in history.ops_for(action="add"):
            if op.info.get("session") != session or not op.ok or _exempt(op, env):
                continue
            item = op.info["item"]
            if (session, item) in removed_items:
                continue  # a remove (even an unacked one) may have landed
            if item not in live:
                result.failures.append(
                    f"acked add lost: {op.describe()} — {item!r} not live "
                    f"in session {session}")
        for op in history.ops_for(action="remove"):
            if op.info.get("session") != session or not op.ok or _exempt(op, env):
                continue
            item = op.info["item"]
            if item not in tombstones:
                result.failures.append(
                    f"acked remove lost: {op.describe()} — {item!r} has no "
                    f"tombstone in session {session}")
        order = kvs.get_merged(cart_workload.order_key(session))
        for op in history.ops_for(action="seal"):
            if op.info.get("session") != session or "manifest" not in op.info:
                continue
            if not op.ok or _exempt(op, env):
                continue
            manifest = op.info["manifest"]
            elements = frozenset(order.elements) if order is not None else frozenset()
            if elements != manifest:
                result.failures.append(
                    f"sealed order mismatch in session {session}: "
                    f"order={sorted(map(repr, elements))} "
                    f"manifest={sorted(map(repr, manifest))}")
    return result


def summarize(checks: Iterable[CheckResult]) -> list[str]:
    """All failures across checkers, prefixed with the checker name."""
    return [f"{check.name}: {failure}"
            for check in checks for failure in check.failures]
