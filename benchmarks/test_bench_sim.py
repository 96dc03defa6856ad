"""Simulator-core throughput: raw event loop, full message stack, sweeps.

Every other benchmark in this directory bottoms out in the same
``Simulator``/``Network``/``Transport`` hot loop, so this bench pins the
loop itself and emits ``benchmarks/out/BENCH_sim.json`` so regressions are
visible across PRs:

* **Raw events/s** — a standing population of self-rescheduling timers;
  nothing but ``schedule``/heap/``callback`` in the loop.
* **Cancel churn** — timers armed far in the future, cancelled and re-armed
  every step (the RPC-retry/clock-skew pattern).  Exercises the tombstone
  compaction path and asserts the queue stays *bounded* — on the pre-PR-8
  lazy-cancel core this leaked one far-future tombstone per re-arm.
* **Full-stack msgs/s** — a two-node ping-pong through ``Node`` →
  ``Transport`` (batching, envelopes) → ``Network`` → dispatch.
* **Serial vs parallel sweep** — the 25-seed chaos sweep, in-process,
  ``jobs=1`` against ``jobs=4``; outcomes must be identical.  Both
  wall-clocks are recorded, never compared: on a half-second sweep the
  "race" is fork overhead against scheduler luck, and no verdict here may
  depend on core count or on one clock reading beating another.

The asserted floors are deliberately conservative (roughly 40% of what the
reference container sustains) and each rate is the best of
``TIMING_REPEATS`` runs, so they trip on real regressions, not on a noisy
neighbour stealing one run's time slice.  ``baseline`` in the JSON records
the pre-optimization numbers measured on the same container when PR 8
landed — the before/after table CI prints comes straight from there.
"""

import os
import time

from conftest import emit_bench, print_rows
from repro.chaos.scenario import fast_config
from repro.chaos.sweep import standard_schedule, sweep
from repro.cluster import Network, NetworkConfig, Simulator
from repro.cluster.node import Node

#: Raw-loop population and volume: 100 concurrent timers, 200k firings.
RAW_TIMERS = 100
RAW_EVENTS = 200_000
#: Cancel-churn volume: one live firing per re-arm of a far-future timer.
CHURN_EVENTS = 100_000
#: Ping-pong volume (logical messages delivered end to end).
PING_PONG_MESSAGES = 50_000
#: Sweep comparison: the CI chaos gauntlet's seed count and parallelism.
SWEEP_SEEDS = 25
SWEEP_JOBS = 4

#: Each floored rate is timed this many times; the fastest run is the one
#: least disturbed by whatever else the host was doing.
TIMING_REPEATS = 3

#: CI floors (events and messages per second).  The reference container
#: sustains ~0.9M raw events/s and ~60k msgs/s after PR 8; 40% leaves room
#: for slower/noisier CI hosts while still catching a real regression.
RAW_EVENTS_PER_SEC_FLOOR = 250_000
MESSAGES_PER_SEC_FLOOR = 20_000

#: Pre-PR-8 numbers, measured on the reference container with these exact
#: workloads against the previous commit (lazy-cancel simulator, dict-based
#: dataclasses, serial-only sweep).  Kept static: they are the "before" in
#: CI's before/after table.
BASELINE = {
    "raw_events_per_sec": 298_161,
    "cancel_churn_events_per_sec": 68_232,
    #: The leak: every superseded far-future deadline stayed in the heap,
    #: so the queue peaked at one event per re-arm for 3 live timers.
    "cancel_churn_peak_pending": 100_000,
    "pingpong_msgs_per_sec": 46_768,
    "sweep_serial_seconds": 0.612,
}

RESULTS: dict = {}


def bench_raw_events() -> dict:
    """A standing population of self-rescheduling timers — pure core loop."""
    sim = Simulator(seed=1)
    fired = 0
    budget = RAW_EVENTS - RAW_TIMERS  # reschedule until the budget drains

    def tick() -> None:
        nonlocal fired
        fired += 1
        if fired <= budget:
            sim.schedule(1.0, tick)

    for _ in range(RAW_TIMERS):
        sim.schedule(1.0, tick)
    start = time.perf_counter()
    sim.run_until_idle(max_events=RAW_EVENTS + 10)
    elapsed = time.perf_counter() - start
    assert sim.events_processed == RAW_EVENTS
    return {"events": RAW_EVENTS, "seconds": round(elapsed, 4),
            "events_per_sec": int(RAW_EVENTS / elapsed)}


def bench_cancel_churn() -> dict:
    """Arm a far-future timer, cancel it, re-arm — once per live event.

    The retry/clock-skew pattern: the deadline almost never fires, it is
    perpetually superseded.  The peak queue size is the regression signal —
    lazy cancellation kept every superseded timer until its (far-future)
    fire time, so the heap grew by one tombstone per re-arm.
    """
    sim = Simulator(seed=2)
    fired = 0
    peak_pending = 0
    deadline = [None]

    def on_deadline() -> None:  # pragma: no cover - never reached
        raise AssertionError("the perpetually re-armed deadline fired")

    def step() -> None:
        nonlocal fired, peak_pending
        fired += 1
        if deadline[0] is not None:
            deadline[0].cancel()
        if fired < CHURN_EVENTS:
            deadline[0] = sim.schedule(1e9, on_deadline, label="deadline")
            sim.schedule(1.0, step)
            if sim.pending_events > peak_pending:
                peak_pending = sim.pending_events
        else:
            deadline[0] = None

    sim.schedule(1.0, step)
    start = time.perf_counter()
    sim.run_until_idle(max_events=CHURN_EVENTS + 10)
    elapsed = time.perf_counter() - start
    # The full chain must have run: this exact bench caught a compaction
    # that rebound the queue list and stranded every later event.
    assert fired == CHURN_EVENTS, f"churn chain stopped at {fired}"
    return {"events": CHURN_EVENTS, "seconds": round(elapsed, 4),
            "events_per_sec": int(CHURN_EVENTS / elapsed),
            "peak_pending": peak_pending,
            "leftover_tombstones": sim.cancelled_pending}


def bench_pingpong() -> dict:
    """Two nodes volleying one logical message through the full stack."""
    sim = Simulator(seed=3)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
    nodes = {name: Node(name, sim, net) for name in ("a", "b")}
    delivered = 0

    def volley(message) -> None:
        nonlocal delivered
        delivered += 1
        if delivered < PING_PONG_MESSAGES:
            me = message.destination
            peer = "b" if me == "a" else "a"
            nodes[me].queue(peer, "ping", delivered, entries=1)

    for node in nodes.values():
        node.on("ping", volley)
    nodes["a"].queue("b", "ping", 0, entries=1)
    start = time.perf_counter()
    sim.run_until_idle(max_events=20 * PING_PONG_MESSAGES)
    elapsed = time.perf_counter() - start
    assert delivered == PING_PONG_MESSAGES
    return {"messages": PING_PONG_MESSAGES, "seconds": round(elapsed, 4),
            "msgs_per_sec": int(PING_PONG_MESSAGES / elapsed)}


def bench_sweep_modes() -> dict:
    """The CI chaos gauntlet, serial vs parallel, outcomes compared."""
    schedule = standard_schedule()
    config = fast_config()
    sweep(range(2), schedule, config=config)  # warm imports/caches

    start = time.perf_counter()
    serial = sweep(range(SWEEP_SEEDS), schedule, config=config)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = sweep(range(SWEEP_SEEDS), schedule, config=config,
                     jobs=SWEEP_JOBS)
    parallel_seconds = time.perf_counter() - start

    assert ([vars(outcome) for outcome in serial.outcomes]
            == [vars(outcome) for outcome in parallel.outcomes]), (
        "parallel sweep outcomes diverged from serial")
    return {"seeds": SWEEP_SEEDS, "jobs": SWEEP_JOBS,
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "speedup": round(serial_seconds / parallel_seconds, 2),
            "cores": len(os.sched_getaffinity(0))}


def fastest(bench) -> dict:
    """The quickest of ``TIMING_REPEATS`` runs of ``bench``."""
    return min((bench() for _ in range(TIMING_REPEATS)),
               key=lambda row: row["seconds"])


def test_simulator_core_throughput_floors():
    RESULTS["raw"] = fastest(bench_raw_events)
    RESULTS["cancel_churn"] = bench_cancel_churn()
    RESULTS["pingpong"] = fastest(bench_pingpong)
    RESULTS["sweep"] = bench_sweep_modes()
    RESULTS["baseline"] = BASELINE
    RESULTS["floors"] = {
        "raw_events_per_sec": RAW_EVENTS_PER_SEC_FLOOR,
        "pingpong_msgs_per_sec": MESSAGES_PER_SEC_FLOOR,
    }

    # The CI floors: a regression to the hot loop trips these first.
    assert RESULTS["raw"]["events_per_sec"] >= RAW_EVENTS_PER_SEC_FLOOR, (
        f"raw event loop regressed: {RESULTS['raw']['events_per_sec']}/s "
        f"< floor {RAW_EVENTS_PER_SEC_FLOOR}/s")
    assert RESULTS["pingpong"]["msgs_per_sec"] >= MESSAGES_PER_SEC_FLOOR, (
        f"message stack regressed: {RESULTS['pingpong']['msgs_per_sec']}/s "
        f"< floor {MESSAGES_PER_SEC_FLOOR}/s")

    # The cancel-leak regression gate: the heap must stay bounded however
    # many times the far-future deadline is superseded.  The bound is the
    # compaction trigger (tombstones can dominate at most briefly) plus the
    # handful of live timers; pre-PR-8 this peaked at ~CHURN_EVENTS.
    churn = RESULTS["cancel_churn"]
    assert churn["peak_pending"] <= 1024, (
        f"cancelled far-future timers are leaking: queue peaked at "
        f"{churn['peak_pending']} events for 3 live timers")

    # Serial ≡ parallel outcomes were asserted inside bench_sweep_modes;
    # the two wall-clocks are only reported.
    sweep_row = RESULTS["sweep"]

    print_rows(
        "Simulator core: events/s, msgs/s, sweep wall-clock",
        ["bench", "volume", "seconds", "rate", "baseline"],
        [
            ["raw events", RESULTS["raw"]["events"],
             RESULTS["raw"]["seconds"],
             f"{RESULTS['raw']['events_per_sec']}/s",
             f"{BASELINE['raw_events_per_sec']}/s"],
            ["cancel churn", churn["events"], churn["seconds"],
             f"{churn['events_per_sec']}/s (peak q {churn['peak_pending']})",
             "unbounded queue"],
            ["pingpong", RESULTS["pingpong"]["messages"],
             RESULTS["pingpong"]["seconds"],
             f"{RESULTS['pingpong']['msgs_per_sec']}/s",
             f"{BASELINE['pingpong_msgs_per_sec']}/s"],
            [f"sweep x{SWEEP_SEEDS}", f"jobs={SWEEP_JOBS}",
             sweep_row["parallel_seconds"],
             f"{sweep_row['speedup']}x vs serial "
             f"({sweep_row['serial_seconds']}s)",
             f"{BASELINE['sweep_serial_seconds']}s serial"],
        ],
    )
    emit_bench("sim", RESULTS)
