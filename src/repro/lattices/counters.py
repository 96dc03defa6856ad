"""Counter CRDTs: grow-only and increment/decrement counters.

``GCounter`` is the classic per-replica grow-only counter (merge = pointwise
max).  ``PNCounter`` pairs two GCounters to support decrements — the state
still only grows, so it remains a lattice, even though the *reported value*
(increments minus decrements) is not monotone.  This mirrors the paper's
``vaccine_count`` example: decrementing inventory is a non-monotone
observation over monotone state and therefore needs coordination when an
invariant (non-negativity) must hold.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.lattices.base import Lattice


class GCounter(Lattice):
    """Grow-only counter: per-replica counts merged by pointwise max."""

    __slots__ = ("counts",)

    def __init__(self, counts: Mapping[Hashable, int] | None = None) -> None:
        items = dict(counts) if counts else {}
        for replica, count in items.items():
            if count < 0:
                raise ValueError(
                    f"GCounter entries must be non-negative; {replica!r} has {count}"
                )
        self.counts: dict[Hashable, int] = items

    def merge(self, other: "GCounter") -> "GCounter":
        merged = dict(self.counts)
        for replica, count in other.counts.items():
            merged[replica] = max(merged.get(replica, 0), count)
        return GCounter(merged)

    def leq(self, other: "GCounter") -> bool:
        if not isinstance(other, GCounter):
            return super().leq(other)
        theirs = other.counts
        return all(count <= theirs.get(replica, 0)
                   for replica, count in self.counts.items())

    @classmethod
    def bottom(cls) -> "GCounter":
        return cls()

    def increment(self, replica: Hashable, amount: int = 1) -> "GCounter":
        """Return a new counter with ``replica``'s slot increased by ``amount``."""
        if amount < 0:
            raise ValueError("GCounter.increment amount must be non-negative")
        merged = dict(self.counts)
        merged[replica] = merged.get(replica, 0) + amount
        return GCounter(merged)

    @property
    def value(self) -> int:
        """Total count across all replicas."""
        return sum(self.counts.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GCounter):
            return NotImplemented
        mine = {k: v for k, v in self.counts.items() if v}
        theirs = {k: v for k, v in other.counts.items() if v}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(("GCounter", frozenset(
            (k, v) for k, v in self.counts.items() if v)))

    def __repr__(self) -> str:
        return f"GCounter({self.counts})"


class PNCounter(Lattice):
    """Increment/decrement counter built from two grow-only counters."""

    __slots__ = ("positive", "negative")

    def __init__(
        self,
        positive: GCounter | None = None,
        negative: GCounter | None = None,
    ) -> None:
        self.positive = positive if positive is not None else GCounter()
        self.negative = negative if negative is not None else GCounter()

    def merge(self, other: "PNCounter") -> "PNCounter":
        return PNCounter(
            self.positive.merge(other.positive),
            self.negative.merge(other.negative),
        )

    def leq(self, other: "PNCounter") -> bool:
        if not isinstance(other, PNCounter):
            return super().leq(other)
        return self.positive.leq(other.positive) and self.negative.leq(other.negative)

    @classmethod
    def bottom(cls) -> "PNCounter":
        return cls()

    def increment(self, replica: Hashable, amount: int = 1) -> "PNCounter":
        """Return a new counter incremented at ``replica`` by ``amount``."""
        return PNCounter(self.positive.increment(replica, amount), self.negative)

    def decrement(self, replica: Hashable, amount: int = 1) -> "PNCounter":
        """Return a new counter decremented at ``replica`` by ``amount``."""
        return PNCounter(self.positive, self.negative.increment(replica, amount))

    @property
    def value(self) -> int:
        """Net count: increments minus decrements (not monotone)."""
        return self.positive.value - self.negative.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PNCounter):
            return NotImplemented
        return self.positive == other.positive and self.negative == other.negative

    def __hash__(self) -> int:
        return hash(("PNCounter", self.positive, self.negative))

    def __repr__(self) -> str:
        return f"PNCounter(+{self.positive.value}, -{self.negative.value})"
