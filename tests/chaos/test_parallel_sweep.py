"""Parallel sweeps must be byte-identical to serial ones.

Seeds are independent deterministic universes, so ``sweep(..., jobs=N)``
may only change wall-clock, never content: per-seed verdicts, shrunk
repros, diagnosis scores, artifacts and stdout all have to match a
``jobs=1`` run exactly — under every ``PYTHONHASHSEED``.  These tests pin
that contract in-process (passing and failing sweeps) and end-to-end
through the CLI (artifact bytes and stdout compared verbatim).
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.chaos import ChaosConfig, fast_config, standard_schedule, sweep
from repro.chaos.nemesis import DropSpike, LatencySpike, PartitionStorm
from repro.cluster.watermark import StampLog

SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: Same injected bug as test_sweep.py: a replica's own changes are not
#: stamped, so delta gossip ships nothing fresh and replicas diverge.
BUG_DEMO_CONFIG = dataclasses.replace(ChaosConfig(), full_sync_every=10 ** 6)
BUG_DEMO_SCHEDULE = [
    LatencySpike(at=10.0, duration=30.0, factor=4.0),
    DropSpike(at=15.0, duration=80.0, drop_rate=0.5),
    PartitionStorm(at=50.0, duration=30.0, waves=1),
]


@pytest.fixture
def skip_dirty_marking(monkeypatch):
    """Simulate the bug the delta protocol must never regress into: a
    replica's own changes are not stamped, so no window ever carries them."""
    monkeypatch.setattr(StampLog, "stamp", lambda self, item: None)


def outcome_dicts(report):
    return [vars(outcome) for outcome in report.outcomes]


class TestInProcessEquivalence:
    def test_passing_sweep_outcomes_match_serial(self):
        serial = sweep(range(8), standard_schedule(), config=fast_config())
        parallel = sweep(range(8), standard_schedule(), config=fast_config(),
                         jobs=4)
        assert outcome_dicts(parallel) == outcome_dicts(serial)
        assert parallel.to_dict() == serial.to_dict()
        assert parallel.summary() == serial.summary()

    def test_failing_sweep_shrinks_identically(self, skip_dirty_marking):
        # Worker processes are forked, so the monkeypatched bug travels
        # with them — both modes hunt the same defect.
        serial = sweep(range(4), BUG_DEMO_SCHEDULE, config=BUG_DEMO_CONFIG,
                       workloads=("kvs",))
        parallel = sweep(range(4), BUG_DEMO_SCHEDULE, config=BUG_DEMO_CONFIG,
                         workloads=("kvs",), jobs=3)
        assert serial.failing_seeds, "the bug demo must fail"
        assert parallel.failing_seeds == serial.failing_seeds
        assert outcome_dicts(parallel) == outcome_dicts(serial)
        # SeedFailure packaging (minimized schedule, repro snippet, config
        # identity) is rebuilt from outcomes — must match field for field.
        assert ([failure.to_dict() for failure in parallel.failures]
                == [failure.to_dict() for failure in serial.failures])

    def test_more_jobs_than_seeds_is_fine(self):
        report = sweep(range(2), standard_schedule(), config=fast_config(),
                       jobs=16)
        assert [outcome.seed for outcome in report.outcomes] == [0, 1]
        assert report.passed


class TestCliEquivalence:
    @pytest.mark.parametrize("hashseed", ["1", "31337"])
    def test_artifacts_and_stdout_are_byte_identical(self, tmp_path, hashseed):
        def run(jobs, tag):
            out = tmp_path / f"sweep-{tag}.json"
            diag = tmp_path / f"diag-{tag}.json"
            env = dict(os.environ, PYTHONPATH=SRC_ROOT,
                       PYTHONHASHSEED=hashseed)
            completed = subprocess.run(
                [sys.executable, "-m", "repro.chaos.sweep",
                 "--seeds", "8", "--jobs", str(jobs),
                 "--sanitize", "--perturb-order", "--diagnose",
                 "--out", str(out), "--diagnosis-out", str(diag)],
                capture_output=True, text=True, env=env, cwd=tmp_path,
                timeout=300)
            assert completed.returncode == 0, completed.stderr
            return completed.stdout, out.read_bytes(), diag.read_bytes()

        serial_stdout, serial_json, serial_diag = run(1, "serial")
        parallel_stdout, parallel_json, parallel_diag = run(4, "parallel")
        assert parallel_stdout == serial_stdout
        assert parallel_json == serial_json
        assert parallel_diag == serial_diag
        # Sanity: the artifact is a real sweep over all 8 seeds.
        payload = json.loads(serial_json)
        assert payload["seeds"] == list(range(8))
        assert payload["passed"] is True
