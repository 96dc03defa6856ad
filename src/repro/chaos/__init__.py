"""Jepsen-in-a-simulator: deterministic chaos testing for the whole stack.

The paper's claim is that lattice-based, CALM-guided programs stay correct
*without coordination* even under failure.  This package turns that claim
into a systematic, reproducible test harness built on the deterministic
cluster simulator:

* :mod:`repro.chaos.nemesis` — composable, RNG-free fault primitives
  (partition storms, lose-state crashes, domain outages, latency/drop
  spikes, reshard-under-fire) scheduled against a :class:`ChaosEnv`;
* :mod:`repro.chaos.workloads` — history-recording generators driving the
  KVS client, the shopping-cart app, causal broadcast and Paxos;
* :mod:`repro.chaos.checkers` — convergence, session guarantees, causal
  and Paxos safety, and the CALM coordination-freeness cross-check;
* :mod:`repro.chaos.scenario` — one seeded scenario end to end;
* :mod:`repro.chaos.sweep` — multi-seed sweeps, exact replay, and greedy
  shrinking of failing schedules to minimal copy-pasteable repros.

Because the simulator is deterministic for a given seed, every failure the
sweep finds replays exactly — ``run_scenario(seed, schedule)`` is the whole
bug report.
"""

from repro.chaos.checkers import (
    CheckResult,
    calm_latency_bound,
    canonicalize,
    check_bounded_staleness,
    check_calm_coordination_free,
    check_cart_integrity,
    check_causal,
    check_convergence,
    check_gossip_byte_budget,
    check_link_byte_conservation,
    check_paxos_safety,
    check_session_guarantees,
    staleness_bound,
    state_digest,
    summarize,
)
from repro.chaos.diagnosis import (
    Blame,
    DiagnosisReport,
    check_fault_localization,
    diagnose,
    identifiable_truth,
    score_against_ground_truth,
)
from repro.chaos.history import FAIL, INVOKED, OK, PENDING, History, Op
from repro.chaos.linearizability import (
    SequentialLogModel,
    check_linearizable,
    find_linearization,
)
from repro.chaos.nemesis import (
    Applied,
    ChaosEnv,
    ClockSkew,
    Congestion,
    CrashClient,
    CrashReplica,
    DomainOutage,
    DropSpike,
    Fault,
    LatencySpike,
    Nemesis,
    PartitionStorm,
    ReshardUnderFire,
    SlowNode,
    schedule_from_dicts,
    schedule_to_dicts,
)
from repro.chaos.scenario import (
    ALL_WORKLOADS,
    ChaosConfig,
    ScenarioResult,
    build_env,
    fast_config,
    geo_config,
    run_scenario,
)
from repro.chaos.sweep import (
    SeedFailure,
    SweepReport,
    replay,
    repro_snippet,
    shrink,
    standard_schedule,
    sweep,
)
from repro.chaos.workloads import (
    CartWorkload,
    CausalWorkload,
    KVSWorkload,
    PaxosWorkload,
    RecordingKVSClient,
)

__all__ = [
    # histories
    "History", "Op", "INVOKED", "OK", "FAIL", "PENDING",
    # nemesis
    "ChaosEnv", "Nemesis", "Fault", "Applied", "PartitionStorm",
    "CrashReplica", "CrashClient", "DomainOutage", "LatencySpike", "DropSpike",
    "Congestion", "SlowNode", "ClockSkew", "ReshardUnderFire",
    "schedule_to_dicts", "schedule_from_dicts",
    # linearizability & diagnosis
    "SequentialLogModel", "check_linearizable", "find_linearization",
    "Blame", "DiagnosisReport", "diagnose", "check_fault_localization",
    "score_against_ground_truth", "identifiable_truth",
    # workloads
    "KVSWorkload", "CartWorkload", "CausalWorkload", "PaxosWorkload",
    "RecordingKVSClient",
    # checkers
    "CheckResult", "check_convergence", "check_session_guarantees",
    "check_causal", "check_paxos_safety", "check_calm_coordination_free",
    "check_cart_integrity", "check_gossip_byte_budget",
    "check_link_byte_conservation",
    "check_bounded_staleness", "staleness_bound",
    "calm_latency_bound", "canonicalize",
    "state_digest", "summarize",
    # scenarios & sweeps
    "ChaosConfig", "ScenarioResult", "run_scenario", "build_env",
    "fast_config", "geo_config", "ALL_WORKLOADS",
    "sweep", "replay", "shrink", "standard_schedule", "repro_snippet",
    "SweepReport", "SeedFailure",
]
