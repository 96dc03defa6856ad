"""What every workload shares: phase spans, the speed meter, the closed
loop, and the load → heal → converge → verify sequence with its counters.

A workload supplies ``issue(op, done)`` — start one request, arrange for
``done(outcome, stale)`` when it completes — and the loop keeps exactly one
op in flight per logical client, from one thread.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from repro.cluster import LatencyRecorder

from bench_e2e.spec import OP_DEADLINE_TICKS, P99_MIN_SAMPLES, TRACED_SHARE

#: ``cluster.simulator.peak_pending`` is sampled once per this many ticks.
SLICE_TICKS = 100.0
#: Events per ``Simulator.run`` call while ops remain to be issued.  Once
#: the stream is exhausted the loop single-steps, so the load phase ends on
#: the very event that completes the last op and every counter read after
#: it is exact.
EVENT_CHUNK = 64
#: Convergence is checked this often after the last op, up to the horizon.
CONVERGE_CHECK_TICKS = 5.0
CONVERGE_HORIZON_TICKS = 1500.0


@dataclass
class Op:
    """One client request: the generated input plus what happened to it."""

    index: int
    kind: str  # "write" | "read" | "coord"
    action: str
    key: object
    arg: object = None
    client: int = -1
    start: float = math.nan
    end: float = math.nan
    outcome: str = "unissued"  # ok | rejected | failed
    stale: bool = False


@dataclass
class Phases:
    """CPU spans of the run's phases (children of one ``run`` span)."""

    spans: list[dict] = field(default_factory=list)

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        start = time.process_time()
        try:
            yield
        finally:
            self.spans.append({"name": name, "parent": "run",
                               "cpu_start": start,
                               "cpu_end": time.process_time()})


class Cpu(NamedTuple):
    """CPU seconds as the clock read them, and priced at reference speed."""

    raw: float
    reference: float


#: CPU-seconds between reference loops, and what one reference loop costs
#: on the reference host when it is quiet (the unit ``Cpu.reference`` is in).
METER_SLICE_S = 0.05
REFERENCE_LOOP_S = 0.0045


class _ReferenceEvent:
    __slots__ = ("time", "sequence")

    def __init__(self, time: float, sequence: int) -> None:
        self.time, self.sequence = time, sequence

    def __lt__(self, other: "_ReferenceEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence


def reference_loop() -> float:
    """CPU seconds one fixed, simulator-shaped piece of work takes right now:
    slotted objects through a heap, tuple-keyed dicts of small dicts.  No
    collection is charged to it."""
    gc.disable()
    started = time.process_time()
    queue: list = []
    table: dict = {}
    x = 12345
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(queue, _ReferenceEvent(x % 1000 / 7.0, i))
        table[("k", x % 5000)] = {"a": i, "b": (i, x)}
        if i & 1:
            heapq.heappop(queue)
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed


class SpeedMeter:
    """Prices a region's CPU time in reference-host seconds.

    This shared host runs the same Python at speeds 1.6x apart, switching
    every second or so, so raw ``process_time`` of a 10 s phase spreads +-15%
    run to run.  The meter cuts the region into ~50 ms slices, times
    ``reference_loop`` between them, and scales each slice by how fast the
    host ran the loops on either side of it; what remains spreads ~1%.  The
    loop is benchmark code, so a change under ``src/`` cannot move it.
    Disabled (the profiled run, where the loop would be profiled too),
    reference time is raw time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.raw = self.reference = 0.0
        self._slice_start = self._loop_before = math.nan

    def start(self) -> None:
        self._loop_before = reference_loop() if self.enabled else math.nan
        self._slice_start = time.process_time()

    def tick(self) -> None:
        """Call often; closes the open slice once it is long enough."""
        if time.process_time() - self._slice_start >= METER_SLICE_S:
            self.read()

    def read(self) -> Cpu:
        """Close the open slice and return the region's totals so far."""
        cpu = time.process_time() - self._slice_start
        self.raw += cpu
        if self.enabled:
            loop_after = reference_loop()
            self.reference += cpu * REFERENCE_LOOP_S / (
                (self._loop_before + loop_after) / 2)
            self._loop_before = loop_after
        else:
            self.reference += cpu
        self._slice_start = time.process_time()
        return Cpu(self.raw, self.reference)


def advance(simulator, ticks: float, meter: SpeedMeter) -> None:
    """``simulator.run(until=now + ticks)`` in event chunks the meter can
    slice (a settle does seconds of work inside a handful of instants)."""
    until = simulator.now + ticks
    while simulator.now < until and simulator.pending_events:
        simulator.run(until=until, max_events=EVENT_CHUNK)
        meter.tick()


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """The repo's nearest-rank percentile, but ``None`` (never 0) on no
    samples."""
    return LatencyRecorder(list(samples)).percentile(p) if samples else None


class ClosedLoop:
    """Drives ``ops`` through ``clients`` logical clients, one op each."""

    def __init__(self, simulator, ops: list[Op], clients: int,
                 issue: Callable[[Op, Callable[[str, bool], None]], None],
                 meter: SpeedMeter,
                 on_progress: Optional[Callable[[int], None]] = None) -> None:
        self.simulator = simulator
        self.ops = ops
        self.clients = clients
        self.issue = issue
        self.meter = meter
        self.on_progress = on_progress
        self.next_op = 0
        self.resolved = 0
        self.peak_pending = 0
        #: CPU of the whole load phase, and of its first ``TRACED_SHARE``.
        self.cpu = self.cpu_at_traced_share = Cpu(math.nan, math.nan)
        self.sim_start = self.sim_end = math.nan
        self._mark_at = max(1, int(len(ops) * TRACED_SHARE))

    @property
    def finished(self) -> bool:
        return self.resolved == len(self.ops)

    def run(self) -> None:
        simulator = self.simulator
        self.sim_start = simulator.now
        self.meter.start()
        for client in range(min(self.clients, len(self.ops))):
            self._issue_next(client)
        next_sample = simulator.now + SLICE_TICKS
        while not self.finished:
            if not simulator.pending_events:
                raise RuntimeError("simulator went idle with ops in flight")
            chunk = EVENT_CHUNK if self.next_op < len(self.ops) else 1
            simulator.run(until=next_sample, max_events=chunk)
            if simulator.now >= next_sample:
                self.peak_pending = max(self.peak_pending,
                                        simulator.pending_events)
                next_sample += SLICE_TICKS

    def _issue_next(self, client: int) -> None:
        if self.next_op == len(self.ops):
            return
        op = self.ops[self.next_op]
        self.next_op += 1
        op.client = client
        op.start = self.simulator.now
        deadline = self.simulator.schedule(
            OP_DEADLINE_TICKS, lambda: self._resolve(op, None, "failed", False),
            label="bench-deadline")
        self.issue(op, lambda outcome, stale=False:
                   self._resolve(op, deadline, outcome, stale))

    def _resolve(self, op: Op, deadline, outcome: str, stale: bool) -> None:
        if op.outcome != "unissued":
            return  # a reply that lost the race with the deadline
        if deadline is not None:
            deadline.cancel()
        op.outcome, op.stale, op.end = outcome, stale, self.simulator.now
        self.resolved += 1
        if self.resolved == self._mark_at:
            self.cpu_at_traced_share = self.meter.read()
        if self.on_progress is not None:
            self.on_progress(self.resolved)
        if self.finished:
            self.cpu = self.meter.read()
            self.sim_end = self.simulator.now
        else:
            self.meter.tick()
            self._issue_next(op.client)


def client_metrics(ops: list[Op], loop: ClosedLoop) -> dict:
    """The client-observed end-to-end numbers every workload reports."""
    done = [op for op in ops if op.outcome in ("ok", "rejected")]
    latencies = {kind: [op.end - op.start for op in done if op.kind == kind]
                 for kind in ("write", "read", "coord")}
    metrics: dict = {
        "samples": {kind: len(values) for kind, values in latencies.items()},
        "coord_p50_ticks": percentile(latencies["coord"], 50),
    }
    for kind in ("write", "read"):
        metrics[f"{kind}_p50_ticks"] = percentile(latencies[kind], 50)
        metrics[f"{kind}_p99_ticks"] = (
            percentile(latencies[kind], 99)
            if len(latencies[kind]) >= P99_MIN_SAMPLES else None)
    failed = len(ops) - len(done)
    metrics.update({
        "attempted": len(ops),
        "failed": failed,
        "failed_ops_share": failed / len(ops),
        "host_ops_per_cpu_s": len(done) / loop.cpu.reference,
        "load_cpu_s_raw": loop.cpu.raw,
        "load_cpu_s_raw_at_traced_share": loop.cpu_at_traced_share.raw,
        "sim_ops_per_ktick":
            len(done) / (loop.sim_end - loop.sim_start) * 1000.0,
    })
    return metrics


# -- layer counters every workload shares --------------------------------------

#: ``network.metrics`` counters the cluster-layer metrics are built from.
_TRANSPORT_COUNTERS = (
    "transport.logical_messages_sent", "transport.envelopes_sent",
    "transport.header_bytes_saved", "transport.queue_wait_ticks",
    "transport.nic_wait_ticks", "transport.serialization_ticks",
    "transport.rpc_requests", "transport.rpc_retries",
    "transport.rpc_timeouts", "transport.rpc_duplicate_requests",
    "transport.rpc_duplicate_replies",
)


def ratio(numerator: float, denominator: float) -> Optional[float]:
    """``None`` (printed ``null``) when the layer did no such work."""
    return numerator / denominator if denominator else None


def cluster_counters(simulator, network, extra: Sequence[str] = ()) -> dict:
    """One flat snapshot of the simulator's and network's public counters;
    the load phase reports end minus start."""
    registry = network.metrics.counters()
    snapshot = {name: registry.get(name, 0.0)
                for name in _TRANSPORT_COUNTERS + tuple(extra)}
    snapshot.update({
        "events": simulator.events_processed,
        "messages_sent": network.messages_sent,
        "bytes_sent": network.bytes_sent,
        "messages_dropped": network.messages_dropped,
        "delivery_samples": network.metrics.latency("net.delivery").count,
    })
    return snapshot


def cluster_layer_metrics(delta: dict, before: dict, loop: ClosedLoop,
                          network, recorders: Sequence[LatencyRecorder]) -> dict:
    """The ``cluster.*`` per-layer metrics from a counter delta."""
    attempted = len(loop.ops)
    delivery = network.metrics.latency("net.delivery").samples[
        before["delivery_samples"]:]
    duplicates = (delta["transport.rpc_duplicate_requests"]
                  + delta["transport.rpc_duplicate_replies"])
    return {
        "cluster.simulator.events_per_op": delta["events"] / attempted,
        "cluster.simulator.peak_pending": loop.peak_pending,
        "cluster.network.envelopes_per_op": delta["messages_sent"] / attempted,
        "cluster.network.bytes_per_envelope":
            ratio(delta["bytes_sent"], delta["messages_sent"]),
        "cluster.network.dropped_share":
            ratio(delta["messages_dropped"], delta["messages_sent"]),
        "cluster.network.queue_wait_ticks_per_op":
            delta["transport.queue_wait_ticks"] / attempted,
        "cluster.network.nic_wait_ticks_per_op":
            delta["transport.nic_wait_ticks"] / attempted,
        "cluster.network.serialization_ticks_per_op":
            delta["transport.serialization_ticks"] / attempted,
        "cluster.network.delivery_p99_ticks": percentile(delivery, 99),
        "cluster.transport.parcels_per_envelope":
            ratio(delta["transport.logical_messages_sent"],
                  delta["transport.envelopes_sent"]),
        "cluster.transport.header_bytes_saved_per_op":
            delta["transport.header_bytes_saved"] / attempted,
        "cluster.transport.rpc_retries_per_op":
            delta["transport.rpc_retries"] / attempted,
        "cluster.transport.rpc_timeouts_per_op":
            delta["transport.rpc_timeouts"] / attempted,
        "cluster.transport.rpc_duplicate_share":
            ratio(duplicates, delta["transport.rpc_requests"]),
        "cluster.metrics.latency_samples_held":
            sum(recorder.count for recorder in recorders),
    }


def mailbox_messages(nodes) -> dict[str, int]:
    """Logical messages sent per mailbox, summed over ``nodes``."""
    totals: dict[str, int] = {}
    for node in nodes:
        for mailbox, stats in node.transport.mailbox_stats.items():
            totals[mailbox] = totals.get(mailbox, 0) + stats["messages"]
    return totals


def run_load(bench, ops: list[Op], clients: int, phases: Phases,
             meter: SpeedMeter, load_wrapper=None, on_progress=None) -> dict:
    """Load, heal, converge and verify ``bench``; what every workload
    reports comes back filled in, for the workload to add its own layers to.

    ``bench`` has ``simulator``, ``network``, ``issue``, and the methods
    ``nodes()``, ``counters()``, ``recorders()``, ``heal()``,
    ``replicas_equal()`` and ``verify(ops) -> (errors, excused)``.
    ``load_wrapper`` (the traced run's profiler) wraps the load phase only.
    """
    gc.collect()
    gc.freeze()
    nodes = bench.nodes()
    before = bench.counters()
    mail_before = mailbox_messages(nodes)
    loop = ClosedLoop(bench.simulator, ops, clients, bench.issue, meter,
                      on_progress)
    with phases("load"):
        (load_wrapper or (lambda load: load()))(loop.run)
    after = bench.counters()
    mail_after = mailbox_messages(nodes)
    with phases("heal"):
        bench.heal()
    with phases("converge"):
        converge_ticks = None
        elapsed = 0.0
        while converge_ticks is None and elapsed < CONVERGE_HORIZON_TICKS:
            elapsed += CONVERGE_CHECK_TICKS
            bench.simulator.run(until=loop.sim_end + elapsed)
            if bench.replicas_equal():
                converge_ticks = elapsed
    with phases("verify"):
        errors, excused = bench.verify(ops)
    gc.unfreeze()

    delta = {name: after[name] - before[name] for name in after}
    metrics = client_metrics(ops, loop)
    metrics["wire_bytes_per_op"] = delta["bytes_sent"] / len(ops)
    metrics["converge_ticks"] = converge_ticks
    return {
        "metrics": metrics,
        "layers": cluster_layer_metrics(delta, before, loop, bench.network,
                                        bench.recorders()),
        "delta": delta,
        "errors": errors,
        "acked_writes_excused": excused,
        "mailbox_messages_per_op": {
            mailbox: (count - mail_before.get(mailbox, 0)) / len(ops)
            for mailbox, count in sorted(mail_after.items())},
        "ops": ops,
    }
