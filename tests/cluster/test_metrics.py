"""Tests for the metrics registry and latency recorder."""

import pytest

from repro.cluster import LatencyRecorder, MetricsRegistry


class TestLatencyRecorder:
    def test_mean_and_max(self):
        recorder = LatencyRecorder()
        for value in [1.0, 2.0, 3.0]:
            recorder.record(value)
        assert recorder.mean == pytest.approx(2.0)
        assert recorder.maximum == pytest.approx(3.0)
        assert recorder.count == 3

    def test_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(float(value))
        assert recorder.p50 == pytest.approx(50.0)
        assert recorder.p99 == pytest.approx(99.0)
        assert recorder.percentile(100) == pytest.approx(100.0)

    def test_empty_recorder_is_zero(self):
        recorder = LatencyRecorder()
        assert recorder.mean == 0.0
        assert recorder.p99 == 0.0

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_rejects_bad_percentile(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.percentile(150)            # empty: still a bad argument
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(150)

    def test_percentile_bounds_are_inclusive(self):
        recorder = LatencyRecorder()
        assert recorder.percentile(0) == recorder.percentile(100) == 0.0
        with pytest.raises(ValueError):
            recorder.percentile(-0.5)           # checked before the empty case
        for value in (3.0, 1.0, 2.0):
            recorder.record(value)
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(100) == 3.0


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.increment("requests")
        metrics.increment("requests", 4)
        assert metrics.counter("requests") == 5
        assert metrics.counter("missing") == 0

    def test_gauges_overwrite(self):
        metrics = MetricsRegistry()
        metrics.set_gauge("replicas", 3)
        metrics.set_gauge("replicas", 5)
        assert metrics.gauge("replicas") == 5

    def test_latency_by_name(self):
        metrics = MetricsRegistry()
        metrics.record_latency("handler", 10.0)
        metrics.record_latency("handler", 20.0)
        assert metrics.latency("handler").count == 2

    def test_snapshot_flattens_everything(self):
        metrics = MetricsRegistry()
        metrics.increment("msgs", 2)
        metrics.set_gauge("nodes", 4)
        metrics.record_latency("op", 1.5)
        snap = metrics.snapshot()
        assert snap["counter.msgs"] == 2
        assert snap["gauge.nodes"] == 4
        assert snap["latency.op.count"] == 1

    def test_reset_clears_all(self):
        metrics = MetricsRegistry()
        metrics.increment("x")
        metrics.reset()
        assert metrics.counter("x") == 0
