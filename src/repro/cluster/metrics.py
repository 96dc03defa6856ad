"""Metrics collection for simulated deployments.

The target facet optimizes latency distributions, billing cost and message
budgets, and the adaptive runtime needs monitoring hooks (§2.2).  This
module provides a small registry of named counters, keyed counter families
and latency recorders that nodes and protocols write into and that
benchmarks read out, plus the windowed per-link :class:`LinkObservatory`
that chaos diagnosis reads.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Hashable, MutableSequence


@dataclass
class LatencyRecorder:
    """Collects latency samples and reports percentiles.

    ``samples`` holds every sample in arrival order, packed as C doubles
    (``array('d')``, 8 bytes each, where a list costs a pointer plus a
    float object): a long run's ``net.delivery`` recorder keeps one per
    delivered envelope.  It slices and sorts like a list; compare it as
    ``list(samples)``.
    """

    samples: MutableSequence[float] = field(default_factory=partial(array, "d"))

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.samples.append(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0-100) by nearest-rank; 0.0 while
        there are no samples."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, math.ceil(p / 100 * len(ordered)) - 1)
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)


@dataclass(slots=True)
class LinkWindowStats:
    """End-to-end observations for one directed link in one time bucket."""

    sent_messages: int = 0
    sent_bytes: int = 0
    dropped_messages: int = 0
    dropped_bytes: int = 0
    delivered_messages: int = 0
    latency_total: float = 0.0
    latency_max: float = 0.0

    @property
    def mean_latency(self) -> float:
        if not self.delivered_messages:
            return 0.0
        return self.latency_total / self.delivered_messages


class LinkObservatory:
    """Windowed per-link observations — the raw material of tomography.

    The cumulative ledgers (``Network.link_byte_stats``, ``net.delivery``)
    answer *whether* a link ever degraded; localizing *when* — and telling a
    40-tick latency spike from a whole-run slow link — needs observations
    bucketed by time.  Each directed link accumulates per-bucket send/drop
    counts and delivery latencies, keyed by the bucket of the message's
    *send* time (a message sent during a spike experiences the spike, even
    if it lands after the heal).

    This is strictly end-to-end data: everything here is observable from
    message sends and arrivals alone, never from simulator or nemesis
    internals — which is what entitles :mod:`repro.chaos.diagnosis` to use
    it as evidence.  Its reader attaches it (``network.observatory =
    LinkObservatory()``, as ``ChaosEnv`` does): a network with none files
    no window, so the table costs nothing where nothing reads it.
    """

    def __init__(self, bucket_width: float = 20.0) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self.bucket_width = bucket_width
        #: bucket -> (source, destination) -> stats: a bucket's window is
        #: one lookup, and no window holds its bucket in its key.
        self._buckets: dict[int, dict[tuple[Hashable, Hashable],
                                      LinkWindowStats]] = {}

    def window_of(self, source: Hashable, destination: Hashable,
                  sent_at: float) -> LinkWindowStats:
        """The window a message sent on this link at ``sent_at`` is counted
        in, created on first use.  The network resolves it once per send and
        updates it directly: at the send, then at the delivery or drop."""
        bucket = int(sent_at // self.bucket_width)
        windows = self._buckets.get(bucket)
        if windows is None:
            windows = self._buckets[bucket] = {}
        stat = windows.get((source, destination))
        if stat is None:
            stat = windows[(source, destination)] = LinkWindowStats()
        return stat

    # -- views -------------------------------------------------------------------

    def buckets(self) -> list[int]:
        """All bucket indices with any observation, ascending."""
        return sorted(self._buckets)

    def window(self, bucket: int) -> dict[tuple[Hashable, Hashable], LinkWindowStats]:
        """Per-link stats for one bucket (links with observations only)."""
        return dict(self._buckets.get(bucket, {}))

    def bucket_span(self, bucket: int) -> tuple[float, float]:
        return (bucket * self.bucket_width, (bucket + 1) * self.bucket_width)

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))


class MetricsRegistry:
    """A named collection of counters, keyed counters and latency recorders."""

    def __init__(self) -> None:
        #: The live counter table: per-envelope paths add into it directly
        #: (``counts[name] += n``); ``increment`` is the same add behind a
        #: call.  Read through ``counter``/``counters``, which create nothing.
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._latencies: defaultdict[str, LatencyRecorder] = defaultdict(
            LatencyRecorder)
        self._keyed: dict[str, dict[Hashable, float]] = {}

    # -- counters ---------------------------------------------------------------

    def increment(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def counter(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    # -- keyed counters ----------------------------------------------------------

    def increment_keyed(self, name: str, key: Hashable, amount: float = 1.0) -> None:
        """Increment one member of a counter family (e.g. per-destination).

        Keyed counters keep a breakdown the flat counters flatten away:
        ``transport.rpc_timeouts`` says how many RPCs died, the keyed family
        ``transport.rpc_timeouts_to`` says *toward whom* — which is the
        difference between detecting a failure and localizing it.
        """
        family = self._keyed.setdefault(name, {})
        family[key] = family.get(key, 0.0) + amount

    def keyed_counters(self, name: str) -> dict[Hashable, float]:
        return dict(self._keyed.get(name, {}))

    # -- latencies --------------------------------------------------------------

    def record_latency(self, name: str, latency: float) -> None:
        self._latencies[name].record(latency)

    def latency(self, name: str) -> LatencyRecorder:
        return self._latencies[name]

    # -- reporting --------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        return dict(self.counts)
