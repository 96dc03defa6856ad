"""The chaos acceptance gate: multi-seed sweeps, bug capture, shrinking.

Three properties are pinned here:

1. the standard nemesis gauntlet (partition storm, lose-state crash,
   domain outage, drop/latency spikes, reshard-under-fire) passes all
   checkers — convergence, session guarantees, causal and Paxos safety,
   CALM coordination-freeness — across 25 seeds;
2. a deliberately injected protocol bug (a replica's own changes are not
   stamped, so no gossip window carries them) is *caught* by the sweep and
   *shrunk* to a minimal (<= 5 faults) copy-pasteable repro;
3. replaying a failing seed reproduces the identical verdict — the
   "replay any failing seed exactly" contract.
"""

import dataclasses
import json

import pytest

from repro.chaos import (
    ChaosConfig,
    DropSpike,
    LatencySpike,
    PartitionStorm,
    fast_config,
    replay,
    run_scenario,
    schedule_from_dicts,
    shrink,
    standard_schedule,
    sweep,
)
from repro.cluster.watermark import StampLog


@pytest.fixture
def skip_dirty_marking(monkeypatch):
    """Simulate the bug the delta protocol must never regress into: a
    replica's own changes are not stamped, so no window ever carries them."""
    monkeypatch.setattr(StampLog, "stamp", lambda self, item: None)


#: Schedule + config for the bug demo: anti-entropy disabled so only the
#: stamped windows can carry a write to the other replicas — exactly what
#: the injected bug breaks.
BUG_DEMO_CONFIG = dataclasses.replace(ChaosConfig(), full_sync_every=10 ** 6)
BUG_DEMO_SCHEDULE = [
    LatencySpike(at=10.0, duration=30.0, factor=4.0),
    DropSpike(at=15.0, duration=80.0, drop_rate=0.5),
    PartitionStorm(at=50.0, duration=30.0, waves=1),
]


class TestStandardSweep:
    def test_25_seed_sweep_passes_all_four_checkers(self):
        report = sweep(range(25), standard_schedule(), config=fast_config())
        assert report.passed, report.summary()
        # A report holds verdicts only; the live runs are re-created here.
        for seed in range(25):
            result = run_scenario(seed, standard_schedule(), config=fast_config())
            # Every scenario ran every checker family.
            names = {check.name for check in result.checks}
            assert {"convergence", "session-guarantees", "causal-safety",
                    "paxos-safety", "calm-coordination-free"} <= names
            # And the workloads actually exercised the cluster under fire.
            assert len(result.history.completed()) > 20
            assert result.env.network.messages_dropped > 0

    def test_report_serializes_to_json(self):
        report = sweep(range(2), standard_schedule(), config=fast_config())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert len(payload["seeds"]) == 2
        assert schedule_from_dicts(payload["schedule"]) == standard_schedule()


class TestInjectedBugDemo:
    def test_sweep_catches_skipped_dirty_marking(self, skip_dirty_marking):
        report = sweep(range(6), BUG_DEMO_SCHEDULE, config=BUG_DEMO_CONFIG,
                       workloads=("kvs",), shrink_failures=False)
        assert report.failing_seeds, "the sweep must catch the injected bug"
        failing = report.failures[0]
        assert any("diverges" in violation for violation in failing.failures)

    def test_failing_schedule_shrinks_to_minimal_repro(self, skip_dirty_marking):
        report = sweep(range(4), BUG_DEMO_SCHEDULE, config=BUG_DEMO_CONFIG,
                       workloads=("kvs",))
        assert report.failing_seeds
        failing = report.failures[0]
        assert len(failing.minimized) <= 5
        assert len(failing.minimized) < len(BUG_DEMO_SCHEDULE)
        # The minimized schedule still fails on its own.
        result = replay(failing.seed, failing.minimized,
                        config=BUG_DEMO_CONFIG, workloads=("kvs",))
        assert not result.passed
        # And the repro is a printable, self-contained recipe.
        assert f"run_scenario({failing.seed}" in failing.repro
        assert "schedule = [" in failing.repro

    def test_failure_artifact_carries_its_config(self, skip_dirty_marking):
        """The JSON artifact must record the config the failure was found
        under — replaying a failure under a config other than its own
        would produce a meaningless verdict."""
        report = sweep(range(3), BUG_DEMO_SCHEDULE, config=BUG_DEMO_CONFIG,
                       workloads=("kvs",), shrink_failures=False)
        assert report.failing_seeds
        entry = json.loads(json.dumps(report.failures[0].to_dict()))
        assert entry["config"]["full_sync_every"] == 10 ** 6
        assert entry["workloads"] == ["kvs"]
        rebuilt = ChaosConfig(**entry["config"])
        assert rebuilt == BUG_DEMO_CONFIG
        result = replay(entry["seed"],
                        schedule_from_dicts(entry["minimized_schedule"]),
                        config=rebuilt, workloads=tuple(entry["workloads"]))
        assert not result.passed

    def test_shrink_rejects_passing_schedule(self):
        with pytest.raises(ValueError):
            shrink(0, standard_schedule(), config=fast_config())


class TestReplay:
    def test_replay_reproduces_identical_verdict(self, skip_dirty_marking):
        first = replay(2, BUG_DEMO_SCHEDULE, config=BUG_DEMO_CONFIG,
                       workloads=("kvs",))
        second = replay(2, BUG_DEMO_SCHEDULE, config=BUG_DEMO_CONFIG,
                        workloads=("kvs",))
        assert first.failures == second.failures
        assert len(first.history) == len(second.history)

    def test_different_seeds_give_different_histories(self):
        first = run_scenario(1, standard_schedule(), config=fast_config())
        second = run_scenario(2, standard_schedule(), config=fast_config())
        keys_first = [op.key for op in first.history]
        keys_second = [op.key for op in second.history]
        assert keys_first != keys_second
