"""One chaos scenario: build a cluster, run workloads + nemesis, judge it.

The scenario lifecycle is Jepsen's, compressed into simulated time:

1. build a deterministic environment from the seed (simulator, network,
   sharded/replicated KVS, crashable-node registry);
2. start the history-recording workloads and arm the nemesis schedule;
3. run until every workload plan and fault window has elapsed;
4. *final-read phase*: heal all partitions, restore link behaviour,
   recover every node with its state, and settle long enough for delta
   retransmission and full-sync anti-entropy to quiesce;
5. run every checker and aggregate the violations.

Everything is derived from ``(seed, schedule, config)``, so a failing
scenario replays exactly — the contract :mod:`repro.chaos.sweep` leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.chaos.checkers import (
    CheckResult,
    check_bounded_staleness,
    check_calm_coordination_free,
    check_cart_integrity,
    check_causal,
    check_convergence,
    check_gossip_byte_budget,
    check_link_byte_conservation,
    check_paxos_safety,
    check_session_guarantees,
    summarize,
)
from repro.chaos.diagnosis import (
    DiagnosisReport,
    check_fault_localization,
    diagnose,
)
from repro.chaos.history import History
from repro.chaos.linearizability import check_linearizable
from repro.chaos.nemesis import ChaosEnv, Fault, Nemesis
from repro.chaos.workloads import (
    CartWorkload,
    CausalWorkload,
    KVSWorkload,
    PaxosWorkload,
)
from repro.cluster import NetworkConfig
from repro.placement.geo import (
    GEO_NIC_BANDWIDTH,
    geo_delay_matrix,
    locality_aware_domain,
)
from repro.storage import LatticeKVS

#: All workload names, in start order.
ALL_WORKLOADS = ("kvs", "cart", "causal", "paxos")

#: Post-heal quiescence horizon.  Must cover ``full_sync_every`` gossip
#: rounds plus a full digest-tree reconciliation — probe recursion down to
#: the leaves and the repair round's delivery (the bounded-staleness
#: checker's judgement horizon) — or a state-losing recovery cannot be
#: healed by anti-entropy before the convergence checker looks.
SETTLE_AFTER_HEAL = 600.0


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one scenario; the defaults are the CI 'fast' profile."""

    shards: int = 2
    replication: int = 2
    gossip_interval: float = 20.0
    full_sync_every: int = 10
    #: Per-link bandwidth (bytes/tick) for the transmission model.  The
    #: chaos profile turns the model on — generously, so serialization is
    #: negligible until a ``Congestion`` fault squeezes it — while the
    #: Network's own default stays off.  ``None`` disables the model (the
    #: pre-model, byte-identical network).
    link_bandwidth: Optional[float] = 4096.0
    #: Runtime sanitizer: digest every payload at ``queue()`` time and
    #: verify it at flush — mutation-after-queue raises
    #: :class:`~repro.cluster.transport.PayloadMutationError` naming the
    #: parcel.  Pure observation: traces are byte-identical with it on.
    sanitize: bool = False
    #: Runtime sanitizer: reverse the transport's sorted flush order.  Any
    #: fixed deterministic order is contractually valid, so every checker
    #: must still pass — a failure under this flag is a latent RL004-class
    #: bug (code that latched onto one specific sorted order).
    perturb_order: bool = False
    #: Geo profile: price links with the 3-region × 2-AZ
    #: :func:`~repro.placement.geo.geo_delay_matrix` and place replicas
    #: with :func:`~repro.placement.geo.locality_aware_domain`, so
    #: ``DomainOutage``/``Congestion``/``PartitionStorm`` interact with
    #: locality (cross-region links are slow and thin; a shard's quorum
    #: lives inside one region).  Workload clients stay in the ``default``
    #: domain and fall back to the base delay and ``link_bandwidth``.
    geo: bool = False
    #: Per-node shared NIC bandwidth (bytes/tick); ``None`` leaves the NIC
    #: stage off (byte-identical to the pre-NIC network).
    nic_bandwidth: Optional[float] = None

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(bandwidth=self.link_bandwidth,
                             delay_matrix=geo_delay_matrix() if self.geo
                             else None,
                             nic_bandwidth=self.nic_bandwidth)


@dataclass
class ScenarioResult:
    """What one scenario run produced."""

    seed: int
    schedule: list[Fault]
    checks: list[CheckResult]
    history: History
    env: ChaosEnv = field(repr=False, default=None)
    sim_duration: float = 0.0
    #: The fault-localization inference for this run (always computed; the
    #: ``fault-localization`` checker scores it against the nemesis
    #: footprint, and the sweep ships it as a CI artifact on failure).
    diagnosis: Optional[DiagnosisReport] = field(repr=False, default=None)

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[str]:
        return summarize(self.checks)

    def __repr__(self) -> str:
        status = "PASS" if self.passed else f"FAIL({len(self.failures)})"
        return (f"ScenarioResult(seed={self.seed}, {status}, "
                f"{len(self.history)} ops, t={self.sim_duration:.0f})")


def build_env(seed: int, config: ChaosConfig) -> ChaosEnv:
    env = ChaosEnv(seed, config.network_config())
    # Every node's Transport holds a reference to this shared config, so
    # setting the sanitizer flags here covers the whole cluster.
    env.network.transport_config.sanitize = config.sanitize
    env.network.transport_config.perturb_order = config.perturb_order
    env.kvs = LatticeKVS(env.simulator, env.network,
                         shard_count=config.shards,
                         replication_factor=config.replication,
                         gossip_interval=config.gossip_interval,
                         vnodes=16,
                         full_sync_every=config.full_sync_every,
                         placement=locality_aware_domain if config.geo
                         else None)
    env.refresh_crashable()
    return env


def run_scenario(seed: int, schedule: Sequence[Fault],
                 config: Optional[ChaosConfig] = None,
                 workloads: Sequence[str] = ALL_WORKLOADS,
                 trace: bool = False,
                 checker: Optional[str] = None) -> ScenarioResult:
    """Run one seeded scenario under ``schedule`` and check it.

    ``checker`` restricts judging to one checker by name (the CLI's
    ``--checker`` filter); ``None`` runs them all.  The run itself is
    identical either way — filtering only affects which verdicts are
    computed, never the event trace.
    """
    config = config or ChaosConfig()
    env = build_env(seed, config)
    if trace:
        env.simulator.tracing = True
    history = History()

    active = {}
    if "kvs" in workloads:
        active["kvs"] = KVSWorkload(env, history)
    if "cart" in workloads:
        active["cart"] = CartWorkload(env, history)
    if "causal" in workloads:
        active["causal"] = CausalWorkload(env, history)
    if "paxos" in workloads:
        active["paxos"] = PaxosWorkload(env, history)
    for workload in active.values():
        workload.start()

    nemesis = Nemesis(env, schedule)
    nemesis.start()

    horizon = max([nemesis.end_time()] +
                  [workload.end_time() for workload in active.values()]) + 5.0
    env.simulator.run(until=horizon)
    env.heal_everything()
    env.simulator.run(until=env.simulator.now + SETTLE_AFTER_HEAL)

    diagnosis = diagnose(env, history)
    suite: list[tuple[str, object]] = [
        ("convergence", lambda: check_convergence(env)),
        ("session-guarantees", lambda: check_session_guarantees(history)),
        ("calm-coordination-free",
         lambda: check_calm_coordination_free(history, env)),
        ("gossip-byte-budget", lambda: check_gossip_byte_budget(env)),
        ("link-byte-conservation",
         lambda: check_link_byte_conservation(env)),
        ("bounded-staleness",
         lambda: check_bounded_staleness(
             history, env, full_sync_every=config.full_sync_every,
             gossip_interval=config.gossip_interval)),
        ("fault-localization",
         lambda: check_fault_localization(env, history, report=diagnosis)),
    ]
    if "cart" in active:
        suite.append(("cart-integrity",
                      lambda: check_cart_integrity(history, env,
                                                   active["cart"])))
    if "causal" in active:
        suite.append(("causal-safety",
                      lambda: check_causal(active["causal"].deliveries)))
    if "paxos" in active:
        suite.append(("paxos-safety",
                      lambda: check_paxos_safety(active["paxos"].log.replicas,
                                                 active["paxos"].applied)))
        suite.append(("linearizable", lambda: check_linearizable(history)))
    if checker is not None:
        names = [name for name, _ in suite]
        if checker not in names:
            raise ValueError(f"unknown checker {checker!r}; "
                             f"available: {', '.join(names)}")
        suite = [(name, thunk) for name, thunk in suite if name == checker]
    checks = [thunk() for _, thunk in suite]
    return ScenarioResult(seed=seed, schedule=list(schedule), checks=checks,
                          history=history, env=env,
                          sim_duration=env.simulator.now,
                          diagnosis=diagnosis)


def fast_config() -> ChaosConfig:
    """The CI sweep profile: small plans, short horizons, full coverage."""
    return ChaosConfig()


def geo_config() -> ChaosConfig:
    """The fast profile over the geo topology: locality-priced links,
    locality-aware replica placement, and shared NIC queues at every node."""
    return replace(ChaosConfig(), geo=True, nic_bandwidth=GEO_NIC_BANDWIDTH)

