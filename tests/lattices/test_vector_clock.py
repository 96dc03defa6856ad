"""Unit tests for vector clocks."""

import pytest

from repro.cluster import payload_digest
from repro.lattices import VectorClock


class TestVectorClock:
    def test_advance_increments_component(self):
        clock = VectorClock().advance("a").advance("a").advance("b")
        assert clock.get("a") == 2
        assert clock.get("b") == 1
        assert clock.get("missing") == 0

    def test_merge_is_pointwise_max(self):
        left = VectorClock({"a": 2, "b": 1})
        right = VectorClock({"a": 1, "b": 3})
        merged = left.merge(right)
        assert merged == VectorClock({"a": 2, "b": 3})

    def test_zero_entries_are_normalised_away(self):
        assert VectorClock({"a": 0}) == VectorClock()

    def test_negative_tick_rejected(self):
        # Regression: the zero-filter used to run before validation, which
        # silently dropped negative ticks instead of raising.
        with pytest.raises(ValueError):
            VectorClock({"a": -1})
        with pytest.raises(ValueError):
            VectorClock({"a": 2, "b": -3})

    def test_leq_is_pointwise(self):
        """``leq`` is happens-before-or-equal, what causal delivery checks."""
        early = VectorClock({"a": 1})
        later = VectorClock({"a": 2, "b": 1})
        other = VectorClock({"b": 2})
        assert early.leq(later) and not later.leq(early)
        assert not later.leq(other) and not other.leq(later)
        assert VectorClock().leq(early)

    def test_merge_orders_print_and_digest_alike(self):
        """Clocks once printed their nodes in insertion order, so equal
        clocks merged in opposite orders digested apart."""
        ab = VectorClock({"a": 1}).merge(VectorClock({"b": 1}))
        ba = VectorClock({"b": 1}).merge(VectorClock({"a": 1}))
        assert repr(ab) == repr(ba) == "VectorClock({'a': 1, 'b': 1})"
        assert payload_digest(ab) == payload_digest(ba)
