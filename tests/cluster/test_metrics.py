"""Tests for the metrics registry, latency recorder and link observatory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import LatencyRecorder, MetricsRegistry
from repro.cluster.metrics import LinkObservatory


class TestLatencyRecorder:
    def test_mean_and_count(self):
        recorder = LatencyRecorder()
        for value in [1.0, 2.0, 3.0]:
            recorder.record(value)
        assert recorder.mean == pytest.approx(2.0)
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

    def test_latency_by_name(self):
        metrics = MetricsRegistry()
        metrics.record_latency("handler", 10.0)
        metrics.record_latency("handler", 20.0)
        assert metrics.latency("handler").count == 2


#: One observation: a link's endpoints, a send time and the bytes it sent.
OBSERVATIONS = st.lists(st.tuples(
    st.sampled_from(["a", "b", 3, ("c", 1)]), st.sampled_from(["a", "b", 3]),
    st.floats(0.0, 200.0, allow_nan=False), st.integers(1, 500)),
    max_size=60)


class TestLinkObservatory:
    @given(st.sampled_from([1.0, 7.5, 20.0]), OBSERVATIONS)
    @settings(max_examples=150, deadline=None)
    def test_views_agree_with_a_flat_table(self, width, observations):
        """Windows stored by bucket read back exactly as one flat
        ``(source, destination, bucket)`` table would give them, each
        bucket's links in the order they were first filed."""
        observatory = LinkObservatory(width)
        flat = {}
        for source, destination, sent_at, size in observations:
            window = observatory.window_of(source, destination, sent_at)
            window.sent_messages += 1
            window.sent_bytes += size
            key = (source, destination, int(sent_at // width))
            messages, sent = flat.get(key, (0, 0))
            flat[key] = (messages + 1, sent + size)
        assert observatory.buckets() == sorted({b for _, _, b in flat})
        assert len(observatory) == len(flat)
        for bucket in observatory.buckets() + [-1, 10_000]:
            expected = {(source, destination): counts
                        for (source, destination, b), counts in flat.items()
                        if b == bucket}
            window = observatory.window(bucket)
            assert list(window) == list(expected)
            assert {link: (stat.sent_messages, stat.sent_bytes)
                    for link, stat in window.items()} == expected
            window.clear()  # a copy: the observatory keeps its windows
        assert len(observatory) == len(flat)
