"""Multi-seed sweeps, exact replay, and greedy schedule shrinking.

``sweep(seeds, schedule)`` runs one scenario per seed and aggregates the
verdicts.  For every failing seed it (optionally) *shrinks* the fault
schedule: greedily re-running the scenario with one fault removed at a
time, keeping any removal that still fails, until no single fault can be
dropped — a minimal fault sequence for that seed.  Because faults are
RNG-free and workload plans depend only on the seed (see
:mod:`repro.chaos.nemesis`), the shrunken schedule is verified by direct
re-execution at every step, never by assumption.

Seeds are embarrassingly parallel — each scenario is a pure function of
``(seed, schedule, config, workloads)`` and determinism is per-seed, never
cross-seed — so ``sweep(..., jobs=N)`` (CLI ``--jobs N``) fans seeds out to
worker processes.  Both modes run the same per-seed function and aggregate
the same picklable :class:`SeedOutcome`, so every artifact a parallel sweep
writes is byte-identical to the serial one (asserted by
``tests/chaos/test_parallel_sweep.py``).

The repro for a failing seed is copy-pasteable Python
(:func:`repro_snippet`) plus a JSON form for CI artifacts.  Run the CI
sweep locally with::

    PYTHONPATH=src python -m repro.chaos.sweep --seeds 25

and replay a failing artifact with::

    PYTHONPATH=src python -m repro.chaos.sweep --replay CHAOS_failures.json
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.chaos.diagnosis import score_against_ground_truth
from repro.chaos.nemesis import (
    ClockSkew,
    Congestion,
    CrashClient,
    CrashReplica,
    DomainOutage,
    DropSpike,
    Fault,
    LatencySpike,
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
    fast_config,
    geo_config,
    run_scenario,
)


def standard_schedule(reshard_to: int = 4) -> list[Fault]:
    """The default gauntlet: every nemesis primitive, overlapping in time.

    Covers the acceptance matrix explicitly: a multi-wave partition storm,
    a state-losing crash, a crash-faulty client, a domain-wide outage,
    latency, drop and congestion spikes, a gray-failure slow node, a
    skewed clock, and a reshard fired while all of it is in flight.

    The slow node is index 5 into the sorted registered ids —
    ``chaos-kv-client-0``, a straggling *client* — deliberately paired
    with the :class:`CrashClient` on the *other* KVS client: the
    localizer must tell "slow but alive" from "crashed mid-operation" on
    two machines with identical roles.
    """
    return [
        PartitionStorm(at=20.0, duration=40.0, waves=2, gap=15.0),
        DropSpike(at=30.0, duration=50.0, drop_rate=0.25),
        CrashReplica(at=45.0, index=1, downtime=70.0, lose_state=True),
        SlowNode(at=42.0, index=5, duration=58.0, factor=4.0),
        CrashClient(at=55.0, index=1, downtime=50.0),
        ReshardUnderFire(at=60.0, new_shard_count=reshard_to),
        ClockSkew(at=65.0, index=1, duration=50.0, offset=20.0, drift=1.25),
        CrashReplica(at=75.0, index=0, downtime=40.0, pool="all"),
        DomainOutage(at=90.0, domain="az-1", downtime=50.0),
        Congestion(at=100.0, duration=45.0, factor=8.0),
        LatencySpike(at=110.0, duration=40.0, factor=6.0),
    ]


@dataclass
class SeedFailure:
    """A failing seed with its minimized repro."""

    seed: int
    failures: list[str]
    minimized: list[Fault]
    repro: str
    config: Optional[ChaosConfig] = None
    workloads: tuple = tuple(ALL_WORKLOADS)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "failures": self.failures,
            "minimized_schedule": schedule_to_dicts(self.minimized),
            # Config and workload set are both part of the failure's
            # identity: a different workload mix registers different nodes
            # (changing partition striping) and consumes different RNG
            # draws, so replaying under anything else is a different
            # execution with a meaningless verdict.
            "config": dataclasses.asdict(self.config) if self.config else None,
            "workloads": list(self.workloads),
            "repro": self.repro,
        }


@dataclass
class SeedOutcome:
    """One seed's complete verdict, with no live environment attached.

    This is the unit a parallel sweep sends back from a worker process —
    :class:`~repro.chaos.scenario.ScenarioResult` holds the simulated
    cluster (closures, the simulator heap) and cannot cross a process
    boundary, so everything the aggregation and the CLI artifacts consume
    (verdict, violations, minimized repro, rendered diagnosis, tomography
    score) is extracted *in the worker* while the environment is alive.
    Serial sweeps build the identical object in-process, which is what
    makes ``--jobs 1`` and ``--jobs N`` artifacts byte-identical.
    """

    seed: int
    passed: bool
    failures: list[str]
    #: ``len(result.history)`` — the ops_total contribution.
    ops: int
    #: The minimized still-failing schedule (``None`` for passing seeds).
    minimized: Optional[list[Fault]] = None
    repro: Optional[str] = None
    #: ``diagnosis.to_dict()`` / ``diagnosis.render()`` (``None`` when the
    #: scenario produced no blame report).
    diagnosis: Optional[dict] = None
    diagnosis_render: Optional[str] = None
    #: Tomography score vs the nemesis ground truth, already JSON-shaped
    #: (precision/recall floats, stringified link lists).
    score: Optional[dict] = None


@dataclass
class SweepReport:
    """The aggregate outcome of one multi-seed sweep."""

    schedule: list[Fault]
    failures: list[SeedFailure] = field(default_factory=list)
    #: Per-seed verdicts, identical in serial and parallel runs; the
    #: summary and artifacts are derived exclusively from these.
    outcomes: list[SeedOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failing_seeds(self) -> list[int]:
        return [failure.seed for failure in self.failures]

    def summary(self) -> str:
        lines = [f"chaos sweep: {len(self.outcomes)} seeds, "
                 f"{len(self.failures)} failing"]
        for failure in self.failures:
            lines.append(f"  seed {failure.seed}: {len(failure.failures)} "
                         f"violations, minimized to "
                         f"{len(failure.minimized)} fault(s)")
            for violation in failure.failures[:5]:
                lines.append(f"    - {violation}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seeds": [outcome.seed for outcome in self.outcomes],
            "passed": self.passed,
            "schedule": schedule_to_dicts(self.schedule),
            "failures": [failure.to_dict() for failure in self.failures],
            "ops_total": sum(outcome.ops for outcome in self.outcomes),
        }


def replay(seed: int, schedule: Sequence[Fault],
           config: Optional[ChaosConfig] = None,
           workloads: Sequence[str] = ALL_WORKLOADS,
           checker: Optional[str] = None) -> ScenarioResult:
    """Re-run one seed exactly; identical inputs give identical verdicts."""
    return run_scenario(seed, schedule, config=config, workloads=workloads,
                        checker=checker)


def shrink(seed: int, schedule: Sequence[Fault],
           config: Optional[ChaosConfig] = None,
           workloads: Sequence[str] = ALL_WORKLOADS,
           known_failing: Optional[ScenarioResult] = None,
           checker: Optional[str] = None
           ) -> tuple[list[Fault], ScenarioResult]:
    """Greedily minimize a failing schedule; every step re-verified by rerun.

    Returns the minimal still-failing schedule and its scenario result.
    Raises ``ValueError`` if the full schedule does not fail for ``seed``.
    ``known_failing`` lets a caller that just ran the full schedule (the
    sweep) skip the confirming re-run — scenarios are deterministic, so
    the prior result is exactly what the re-run would produce.
    """
    current = list(schedule)
    result = known_failing if known_failing is not None else run_scenario(
        seed, current, config=config, workloads=workloads, checker=checker)
    if result.passed:
        raise ValueError(f"seed {seed} does not fail under the given schedule")
    progressed = True
    while progressed and current:
        progressed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            attempt = run_scenario(seed, candidate, config=config,
                                   workloads=workloads, checker=checker)
            if not attempt.passed:
                current = candidate
                result = attempt
                progressed = True
                break
    return current, result


def repro_snippet(seed: int, schedule: Sequence[Fault],
                  config: Optional[ChaosConfig] = None,
                  workloads: Sequence[str] = ALL_WORKLOADS) -> str:
    """A copy-pasteable repro for one failing seed.

    ``ChaosConfig`` and every fault are frozen dataclasses, so their reprs
    are valid Python — the snippet reconstructs the run verbatim.
    """
    fault_lines = ",\n    ".join(repr(fault) for fault in schedule)
    config_expr = repr(config) if config is not None else "fast_config()"
    return (
        "# PYTHONPATH=src python - <<'EOF'\n"
        "from repro.chaos import *\n"
        f"schedule = [\n    {fault_lines},\n]\n"
        f"result = run_scenario({seed}, schedule, config={config_expr},\n"
        f"                      workloads={tuple(workloads)!r})\n"
        "print(result)\n"
        "for failure in result.failures:\n"
        "    print(' -', failure)\n"
        "# EOF"
    )


def _run_seed(seed: int, schedule: tuple, config: Optional[ChaosConfig],
              workloads: tuple, shrink_failures: bool,
              checker: Optional[str]) -> SeedOutcome:
    """Run one seed end to end: scenario, shrink on failure, diagnosis score.

    The single per-seed code path both sweep modes share; only the
    picklable outcome leaves it, never the live environment.
    """
    result = run_scenario(seed, schedule, config=config, workloads=workloads,
                          checker=checker)
    minimized: Optional[list[Fault]] = None
    repro: Optional[str] = None
    if not result.passed:
        minimized = list(schedule)
        if shrink_failures:
            minimized, _ = shrink(seed, schedule, config=config,
                                  workloads=workloads, known_failing=result,
                                  checker=checker)
        repro = repro_snippet(seed, minimized, config, workloads)
    diagnosis_dict: Optional[dict] = None
    diagnosis_render: Optional[str] = None
    score_entry: Optional[dict] = None
    if result.diagnosis is not None:
        diagnosis_dict = result.diagnosis.to_dict()
        diagnosis_render = result.diagnosis.render()
        score = score_against_ground_truth(result.diagnosis, result.env,
                                           result.history)
        score_entry = {
            "precision": score["precision"],
            "recall": score["recall"],
            "blamed": [list(map(str, s)) for s in score["blamed"]],
            "truth": [list(map(str, s)) for s in score["truth"]],
            "misses": [list(map(str, s)) for s in score["misses"]],
        }
    return SeedOutcome(
        seed=seed,
        passed=result.passed,
        failures=list(result.failures),
        ops=len(result.history),
        minimized=minimized,
        repro=repro,
        diagnosis=diagnosis_dict,
        diagnosis_render=diagnosis_render,
        score=score_entry,
    )


def sweep(seeds: Sequence[int], schedule: Sequence[Fault],
          config: Optional[ChaosConfig] = None,
          workloads: Sequence[str] = ALL_WORKLOADS,
          shrink_failures: bool = True,
          checker: Optional[str] = None,
          jobs: int = 1) -> SweepReport:
    """Run the schedule across every seed; shrink and package any failure.

    ``jobs > 1`` fans seeds out to that many worker processes.  Each seed
    is already a sealed deterministic universe (its own simulator, its own
    RNG), so parallel outcomes — verdicts, shrunk schedules, diagnosis
    scores — are byte-identical to a serial run.
    """
    report = SweepReport(schedule=list(schedule))
    tasks = [(seed, tuple(schedule), config, tuple(workloads),
              shrink_failures, checker) for seed in seeds]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        try:
            # fork shares the warmed-up interpreter; spawn (the only option
            # on some platforms) re-imports but inherits the environment —
            # either way PYTHONHASHSEED carries over and per-seed
            # determinism never depended on it in the first place.
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context("spawn")
        with context.Pool(min(jobs, len(tasks))) as pool:
            # chunksize=1: seeds have wildly different costs (a failing
            # seed shrinks by re-running the scenario a dozen times), so
            # fine-grained dealing beats pre-chunking.  map preserves
            # input order, which is all aggregation relies on.
            report.outcomes = pool.starmap(_run_seed, tasks, chunksize=1)
    else:
        report.outcomes = [_run_seed(*task) for task in tasks]
    for outcome in report.outcomes:
        if outcome.passed:
            continue
        report.failures.append(SeedFailure(
            seed=outcome.seed,
            failures=outcome.failures,
            minimized=list(outcome.minimized),
            repro=outcome.repro,
            config=config,
            workloads=tuple(workloads)))
    return report


def _main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Run a chaos sweep (or replay a failing artifact).")
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of seeds to sweep (0..N-1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep; seeds are "
                             "independent deterministic universes, so every "
                             "artifact is byte-identical to --jobs 1")
    parser.add_argument("--out", default="CHAOS_sweep.json",
                        help="sweep report output path")
    parser.add_argument("--failures-out", default="CHAOS_failures.json",
                        help="minimized failing schedules output path")
    parser.add_argument("--replay", metavar="ARTIFACT",
                        help="replay every failure in a CHAOS_failures.json")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failing schedules")
    parser.add_argument("--checker", metavar="NAME",
                        help="run only the named checker (e.g. "
                             "'linearizable', 'fault-localization'); "
                             "default runs the full suite")
    parser.add_argument("--diagnose", action="store_true",
                        help="print each seed's fault-localization blame "
                             "report (inferred culprits vs the nemesis "
                             "ground truth)")
    parser.add_argument("--diagnosis-out", default="CHAOS_diagnosis.json",
                        help="blame-report artifact path (written on "
                             "sweep failure, or always with --diagnose)")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable the payload mutation-after-queue "
                             "sanitizer (trace-identical; raises "
                             "PayloadMutationError on violation)")
    parser.add_argument("--perturb-order", action="store_true",
                        help="reverse the transport's sorted flush order "
                             "to smoke out code latched onto one specific "
                             "deterministic order (latent RL004 misses)")
    parser.add_argument("--geo", action="store_true",
                        help="run under the geo profile: 3-region x 2-AZ "
                             "delay/bandwidth matrix, locality-aware "
                             "replica placement, shared per-node NIC "
                             "queues (see repro.placement.geo)")
    args = parser.parse_args(argv)

    if args.replay:
        with open(args.replay) as handle:
            artifact = json.load(handle)
        exit_code = 0
        for entry in artifact["failures"]:
            schedule = schedule_from_dicts(entry["minimized_schedule"])
            # Replay under the exact config and workload set the failure
            # was found with — both are part of the failure's identity.
            config = (ChaosConfig(**entry["config"]) if entry.get("config")
                      else fast_config())
            workloads = tuple(entry.get("workloads") or ALL_WORKLOADS)
            result = replay(entry["seed"], schedule, config=config,
                            workloads=workloads)
            print(result)
            for failure in result.failures:
                print(" -", failure)
            if not result.passed:
                exit_code = 1
        return exit_code

    config = dataclasses.replace(geo_config() if args.geo else fast_config(),
                                 sanitize=args.sanitize,
                                 perturb_order=args.perturb_order)
    report = sweep(range(args.seeds), standard_schedule(),
                   config=config,
                   shrink_failures=not args.no_shrink,
                   checker=args.checker,
                   jobs=args.jobs)
    print(report.summary())
    with open(args.out, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
    # Everything below consumes SeedOutcome only — the one representation
    # both sweep modes produce — so --jobs N artifacts are byte-identical
    # to serial ones.
    if args.diagnose:
        for outcome in report.outcomes:
            if outcome.diagnosis_render is not None:
                print(f"seed {outcome.seed}")
                print(outcome.diagnosis_render)
    if report.failures or args.diagnose:
        # Blame reports for every seed (scored against the nemesis
        # footprint) — the CI artifact a human starts from when a sweep
        # goes red.
        entries = []
        for outcome in report.outcomes:
            if outcome.diagnosis is None:
                continue
            entry = {
                "seed": outcome.seed,
                "passed": outcome.passed,
                "diagnosis": outcome.diagnosis,
            }
            entry.update(outcome.score)
            entries.append(entry)
        with open(args.diagnosis_out, "w") as handle:
            json.dump({"seeds": entries}, handle, indent=2)
    if report.failures:
        with open(args.failures_out, "w") as handle:
            json.dump({"failures": [failure.to_dict()
                                    for failure in report.failures]},
                      handle, indent=2)
        for failure in report.failures:
            print(failure.repro)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(_main())
