"""The end-to-end benchmark's one command.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--traced | --trace 0|1] [--check-repeat]

Each workload runs in a fresh child process (so ``peak_rss_mb`` and the
``stable_digest`` memo are per workload) under a pinned ``PYTHONHASHSEED``,
closed-loop from one thread.  Every metric is printed by name with its unit;
the last line of stdout is one JSON object (the driver contract's shape when
``--workload`` is given).  Results land in ``benchmarks/e2e/out/`` — a run
rewrites no tracked file.  Exit status is non-zero if any output check, or
``--check-repeat``, fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
sys.path.insert(0, str(SRC))

from bench_e2e import spec  # noqa: E402  (needs the path above)

OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
#: Set-up is timed in this many fresh processes; ``setup_s`` is the median.
SETUP_REPEATS = 3


# -- child ---------------------------------------------------------------------

def child(args) -> None:
    from bench_e2e.runner import run_once

    record = run_once(args.workload, args.seed, args.ops, traced=args.traced,
                      setup_only=args.setup_only)
    spans = record.pop("spans", None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        trace = OUT / f"trace-{args.workload}.json"
        trace.write_text(json.dumps({"env": record["env"], "spans": spans}))
        record["trace_file"] = str(trace.relative_to(HERE))
    print(json.dumps(record))


def spawn(workload: str, seed: int, ops: int, hash_seed: str, *flags) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--child", "--workload",
               workload, "--seed", str(seed), "--ops", str(ops), *flags]
    done = subprocess.run(
        command, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# -- one workload ----------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, hash_seed: str,
            traced: bool) -> dict:
    """The untraced run (always) plus either the extra set-up timings
    (untraced report) or the profiled replay (traced report)."""
    ops = spec.scaled_ops(workload, seconds)
    result = spawn(workload, seed, ops, hash_seed)
    if traced:
        replay = spawn(workload, seed, ops, hash_seed, "--traced")
        result["layers"] = per_layer(result, replay)
        result["entry_calls_per_op"] = replay["entry_calls_per_op"]
        result["trace_file"] = replay["trace_file"]
        result["errors"] += replay["errors"]
    else:
        setups = [result["setup_s"]] + [
            spawn(workload, seed, ops, hash_seed, "--setup-only")["setup_s"]
            for _ in range(SETUP_REPEATS - 1)]
        result["setup_s_runs"] = setups
        result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["traced"] = traced
    OUT.mkdir(exist_ok=True)
    suffix = "-traced" if traced else ""
    (OUT / f"result-{workload}-seed{seed}{suffix}.json").write_text(
        json.dumps(result, indent=1))
    return result


def per_layer(untraced: dict, replay: dict) -> dict:
    """Counters from the untraced run, shares and call counts from the
    profiled replay of its first quarter, and the end-to-end metrics the
    contract cannot bound (``e2e.*``)."""
    values = dict(untraced["layers"])
    shares = replay["layer_shares"]
    for layer in spec.LAYER_NAMES + (spec.OTHER_LAYER,):
        values[f"{layer}.self_cpu_share"] = shares.get(layer, 0.0)
    values["bench.driver_self_cpu_share"] = shares.get(spec.DRIVER_LAYER, 0.0)
    for name in ("storage.antientropy.tree_updates_per_write",
                 "lattices.merge_calls_per_write",
                 "core.state.snapshots_per_op"):
        values[name] = replay["layers"][name]
    values["bench.trace_overhead_ratio"] = (
        replay["load_cpu_s_raw"] / untraced["load_cpu_s_raw_at_traced_share"])
    for metric in spec.END_TO_END:
        if metric.name not in spec.CONTRACT_END_TO_END:
            values[f"e2e.{metric.name}"] = untraced["end_to_end"][metric.name]
    return values


# -- printing --------------------------------------------------------------------

def _show(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    workload = result["workload"]
    env = result["env"]
    why = next(w.why for w in spec.WORKLOADS if w.name == workload)
    print(f"\n== {workload}  ({result['attempted']} ops, seed {env['seed']}, "
          f"PYTHONHASHSEED {env['hash_seed']}, python {env['python']}, "
          f"nproc {env['nproc']})")
    print(f"   {why}")
    sample_of = {"write_p50_ticks": "write", "write_p99_ticks": "write",
                 "read_p50_ticks": "read", "read_p99_ticks": "read",
                 "coord_p50_ticks": "coord"}
    print("   end to end:")
    for metric in spec.END_TO_END:
        line = (f"     {metric.name:<22} {_show(result['end_to_end'][metric.name]):>12}"
                f" {metric.unit:<8} ({metric.better} is better)")
        if metric.name in sample_of:
            line += f"  n={result['samples'][sample_of[metric.name]]}"
        print(line)
    print(f"     failed/attempted       {result['failed']}/{result['attempted']}"
          f"   verification: {'ok' if not result['errors'] else 'FAILED'}")
    for error in result["errors"]:
        print(f"     ! {error}")
    print("   per layer:" if result["traced"] else
          "   per layer (counters; shares and call counts need --traced):")
    for metric in spec.PER_LAYER:
        if metric.name in result["layers"]:
            print(f"     {metric.name:<52} "
                  f"{_show(result['layers'][metric.name]):>12} {metric.unit}")


def contract_line(result: dict) -> dict:
    """The driver contract's last line: end-to-end metrics untraced, per-layer
    metrics traced; a metric that does not apply here reads 0 (the report
    above and the file in ``out/`` say ``null``)."""
    if result["traced"]:
        metrics = {m.name: {"value": result["layers"].get(m.name) or 0.0,
                            "unit": m.unit} for m in spec.PER_LAYER}
    else:
        units = {m.name: m.unit for m in spec.END_TO_END}
        metrics = {name: {"value": result["end_to_end"][name],
                          "unit": units[name]}
                   for name in spec.CONTRACT_END_TO_END}
    return {"correct": not result["errors"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# -- --check-repeat --------------------------------------------------------------

def check_repeat(first: list[dict], second: list[dict]) -> list[str]:
    """Exact metrics must be equal; host metrics must agree within bounds."""
    problems = []
    print("\n== repeat check (run 1 vs run 2, the other pinned hash seed)")
    for one, two in zip(first, second):
        workload = one["workload"]
        for metric in spec.END_TO_END:
            a, b = one["end_to_end"][metric.name], two["end_to_end"][metric.name]
            if metric.exact:
                if a != b:
                    problems.append(f"{workload}.{metric.name}: {a} != {b}")
                continue
            spread = abs(a - b) / min(a, b)
            allowed = metric.bound
            if metric.name == "setup_s":
                allowed = max(allowed, 0.2 / min(a, b))
            print(f"   {workload:<18} {metric.name:<20} {_show(a):>10} "
                  f"{_show(b):>10}  spread {spread:6.1%}  bound {allowed:.0%}")
            if spread > allowed:
                problems.append(
                    f"{workload}.{metric.name}: {a} vs {b} exceeds {allowed:.0%}")
        exact_layers = {m.name for m in spec.PER_LAYER if m.exact}
        for name in sorted(exact_layers & one["layers"].keys()):
            if one["layers"][name] != two["layers"].get(name):
                problems.append(f"{workload}.{name}: {one['layers'][name]} "
                                f"!= {two['layers'].get(name)}")
    for problem in problems:
        print(f"   ! {problem}")
    print("   exact metrics identical, host metrics within bounds"
          if not problems else f"   {len(problems)} mismatches")
    return problems


# -- main ------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the load phase: scales every op count by "
                             f"seconds/{spec.FULL_SCALE_SECONDS:g}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.traced = args.traced or bool(args.trace)
    if args.child:
        child(args)
        return 0

    if not (SRC / "repro").is_dir():
        sys.exit(f"run.py: nothing to measure, {SRC / 'repro'} is missing")
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    results = [measure(name, args.seed, args.seconds, spec.HASH_SEEDS[0],
                       args.traced) for name in names]
    for result in results:
        report(result)
    problems = [error for result in results for error in result["errors"]]
    if args.check_repeat:
        again = [measure(name, args.seed, args.seconds, spec.HASH_SEEDS[1],
                         args.traced) for name in names]
        problems += [error for result in again for error in result["errors"]]
        problems += check_repeat(results, again)
    print()
    if args.workload:
        print(json.dumps(contract_line(results[0])))
    else:
        print(json.dumps({result["workload"]: contract_line(result)
                          for result in results}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
