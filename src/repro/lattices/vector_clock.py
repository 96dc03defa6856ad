"""Vector clocks: per-node logical clocks merged by pointwise max.

Vector clocks are the canonical lattice for tracking causality: merge is a
pointwise max and the induced partial order (``leq``) is the happens-before
relation.  Causal broadcast (``consistency/causal.py``) tags each message
with the clock it depends on, and the chaos causal checker compares those
clocks with ``leq``.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.lattices.base import Lattice, max_counts, sorted_mapping_repr


class VectorClock(Lattice):
    """Per-node logical clocks merged by pointwise max."""

    __slots__ = ("clocks",)

    def __init__(self, clocks: Mapping[Hashable, int] | None = None) -> None:
        items = dict(clocks or {})
        for node, tick in items.items():
            if tick < 0:
                raise ValueError(f"clock for {node!r} must be non-negative, got {tick}")
        # Zero entries are the implicit default; dropping them keeps equal
        # clocks structurally equal.  Validate before filtering — filtering
        # first would silently discard negative ticks too.
        self.clocks: dict[Hashable, int] = {
            node: tick for node, tick in items.items() if tick > 0
        }

    def merge(self, other: "VectorClock") -> "VectorClock":
        clocks = max_counts(self.clocks, other.clocks)
        if clocks is self.clocks:
            return self
        return other if clocks is other.clocks else VectorClock(clocks)

    def leq(self, other: "VectorClock") -> bool:
        if not isinstance(other, VectorClock):
            return super().leq(other)
        theirs = other.clocks
        return all(tick <= theirs.get(node, 0)
                   for node, tick in self.clocks.items())

    @classmethod
    def bottom(cls) -> "VectorClock":
        return cls()

    def advance(self, node: Hashable) -> "VectorClock":
        """Return a new clock with ``node``'s component incremented by one."""
        merged = dict(self.clocks)
        merged[node] = merged.get(node, 0) + 1
        return VectorClock(merged)

    def get(self, node: Hashable) -> int:
        return self.clocks.get(node, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self.clocks == other.clocks

    def __hash__(self) -> int:
        return hash(("VectorClock", frozenset(self.clocks.items())))

    def __repr__(self) -> str:
        return f"VectorClock({sorted_mapping_repr(self.clocks)})"
