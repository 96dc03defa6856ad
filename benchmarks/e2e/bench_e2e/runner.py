"""One workload, one process, one result record.

``run_once`` is what each child process of ``run.py`` executes (and what the
smoke test calls in-process): set the workload up, optionally stop there
(the extra set-up timings behind ``setup_s``), else load it — under a
profiler when traced — then heal, converge, verify and fold everything into
one JSON-ready dict whose metric names are exactly ``spec``'s.
"""

from __future__ import annotations

import cProfile
import os
import platform
import resource
import time
from pathlib import Path

import repro

from bench_e2e import kvs, pact, rollup
from bench_e2e.harness import Phases, SpeedMeter
from bench_e2e.spec import END_TO_END, TRACED_SHARE

SRC_ROOT = str(Path(repro.__file__).resolve().parent)


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "seed": seed,
    }


def run_once(workload: str, seed: int, op_count: int, *, traced: bool = False,
             setup_only: bool = False, scale: float = 1.0) -> dict:
    """Run ``workload`` once in this process.

    ``traced`` replays only the first ``TRACED_SHARE`` of the same op stream
    under ``cProfile`` and adds the layer shares, entry-point call counts and
    spans; ``scale`` shrinks the KVS key counts (smoke test only).
    """
    phases = Phases()
    run_start = time.process_time()
    # The profiled run is not metered: the reference loop would be profiled
    # (and slowed) with everything else, and would show up as a layer.
    meter = SpeedMeter(enabled=not traced)
    meter.start()
    if workload == "pact_covid":
        module, bench = pact, pact.setup(seed, op_count, phases, meter)
    else:
        module, bench = kvs, kvs.setup(workload, seed, phases, meter, scale)
    setup_cpu = meter.read()
    record = {"workload": workload, "ops": op_count, "traced": traced,
              "env": environment(seed), "setup_s": setup_cpu.reference,
              "setup_s_raw": setup_cpu.raw}
    if setup_only:
        return record

    profile = cProfile.Profile() if traced else None
    raw = module.load(bench, seed, op_count, TRACED_SHARE if traced else 1.0,
                      phases, SpeedMeter(enabled=not traced),
                      profile.runcall if traced else None)
    metrics, layers = raw["metrics"], raw["layers"]
    metrics["setup_s"] = record["setup_s"]
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    record.update({
        "end_to_end": {m.name: metrics[m.name] for m in END_TO_END},
        "samples": metrics["samples"],
        "attempted": metrics["attempted"],
        "failed": metrics["failed"],
        "load_cpu_s_raw": metrics["load_cpu_s_raw"],
        "load_cpu_s_raw_at_traced_share":
            metrics["load_cpu_s_raw_at_traced_share"],
        "layers": layers,
        "errors": raw["errors"],
        "acked_writes_excused": raw["acked_writes_excused"],
        "mailbox_messages_per_op": raw["mailbox_messages_per_op"],
    })
    spans = [{"name": "run", "parent": None, "cpu_start": run_start,
              "cpu_end": time.process_time()}] + phases.spans
    if traced:
        attempted, writes = metrics["attempted"], raw["writes"]
        shares = rollup.layer_shares(profile, SRC_ROOT)
        calls = rollup.entry_calls(profile, SRC_ROOT)
        record["layer_shares"] = shares
        record["entry_calls_per_op"] = {
            name: count / attempted for name, count in calls.items()}
        layers["storage.antientropy.tree_updates_per_write"] = (
            calls["DigestTree.update"] / writes if writes else None)
        layers["lattices.merge_calls_per_write"] = (
            calls["Lattice.merge|merge_into|leq"] / writes if writes else None)
        layers["core.state.snapshots_per_op"] = (
            calls["ProgramState.snapshot"] / attempted)
        spans += [{"name": f"op#{op.index}", "parent": "load", "id": op.index,
                   "client": op.client, "kind": op.kind, "action": op.action,
                   "key": op.key, "sim_start": op.start, "sim_end": op.end,
                   "outcome": op.outcome, "stale": op.stale}
                  for op in raw["ops"]]
        record["spans"] = spans
    else:
        record["phases"] = spans
    return record
