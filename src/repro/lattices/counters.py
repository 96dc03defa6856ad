"""The grow-only counter CRDT.

``GCounter`` is the classic per-replica grow-only counter: each replica
increments its own slot and merge is a pointwise max, so the total only
grows.  A zero slot is the implicit default and is never stored, so equal
counters hold equal dicts.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.lattices.base import Lattice, max_counts, sorted_mapping_repr


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
        # Validate before filtering, as VectorClock does: filtering first
        # would silently discard negative counts too.
        self.counts: dict[Hashable, int] = {
            replica: count for replica, count in items.items() if count > 0
        }

    def merge(self, other: "GCounter") -> "GCounter":
        counts = max_counts(self.counts, other.counts)
        if counts is self.counts:
            return self
        return other if counts is other.counts else GCounter(counts)

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
        return isinstance(other, GCounter) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(("GCounter", frozenset(self.counts.items())))

    def __repr__(self) -> str:
        return f"GCounter({sorted_mapping_repr(self.counts)})"
