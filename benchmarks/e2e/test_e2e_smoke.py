"""Tier-1 coverage of the end-to-end benchmark's driver.

Each workload runs twice in-process at 1/100 scale; verification must pass
and every exact metric must repeat.  Nothing here reads a clock or a core
count (ROADMAP item 1(a)): the assertions are on simulated ticks, bytes and
counts only.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench_e2e import spec
from bench_e2e.runner import run_once

SCALE = 0.01
#: Exact within a process run, but the ``stable_digest`` memo is process-wide
#: state, so the second in-process run starts warm.
PROCESS_WIDE = {"storage.ring.digest_cache_hit_rate"}


def exact_metrics(record: dict) -> dict:
    names = {m.name for m in spec.END_TO_END + spec.PER_LAYER if m.exact}
    merged = {**record["end_to_end"], **record["layers"]}
    return {name: merged[name] for name in sorted(names - PROCESS_WIDE)
            if name in merged}


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_workload_verifies_and_repeats(workload):
    ops = spec.scaled_ops(workload, spec.FULL_SCALE_SECONDS * SCALE)
    first = run_once(workload, 7, ops, scale=SCALE)
    second = run_once(workload, 7, ops, scale=SCALE)
    assert first["errors"] == []
    assert first["failed"] == 0 and first["attempted"] == ops
    assert exact_metrics(first) == exact_metrics(second)
    for name in spec.CONTRACT_END_TO_END:
        assert first["end_to_end"][name] > 0, name


def test_traced_shares_sum_to_one():
    ops = spec.scaled_ops("kvs_flat_read", spec.FULL_SCALE_SECONDS * SCALE)
    record = run_once("kvs_flat_read", 7, ops, traced=True, scale=SCALE)
    shares = record["layer_shares"]
    assert abs(sum(shares.values()) - 1.0) < 0.01
    assert set(shares) <= set(spec.LAYER_NAMES) | {spec.DRIVER_LAYER,
                                                   spec.OTHER_LAYER}
    assert record["attempted"] == int(ops * spec.TRACED_SHARE)
    assert sum(span["parent"] == "load" for span in record["spans"]) == \
        record["attempted"]


def test_benchmark_json_matches_spec():
    declared = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    units = {m.name: (m.unit, m.better) for m in spec.END_TO_END}
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] \
        == [(name, *units[name]) for name in spec.CONTRACT_END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOAD_NAMES)
    assert declared["paths"] == ["benchmarks/e2e"]
