"""Vector clocks and causally-tagged values.

Vector clocks are the canonical lattice for tracking causality: merge is a
pointwise max and the induced partial order is the happens-before relation.
``CausalValue`` pairs a vector clock with a payload lattice and is the state
wrapper used by the causal-consistency mechanism and the Hydrocache-style
encapsulation strategy described in the paper's consistency facet (§7.1).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.lattices.base import Lattice


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
        merged = dict(self.clocks)
        for node, tick in other.clocks.items():
            merged[node] = max(merged.get(node, 0), tick)
        return VectorClock(merged)

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

    def happens_before(self, other: "VectorClock") -> bool:
        """Strict happens-before: self <= other and self != other."""
        return self.leq(other) and self != other

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True iff neither clock dominates the other."""
        return not self.leq(other) and not other.leq(self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self.clocks == other.clocks

    def __hash__(self) -> int:
        return hash(("VectorClock", frozenset(self.clocks.items())))

    def __repr__(self) -> str:
        return f"VectorClock({self.clocks})"


class CausalValue(Lattice):
    """A payload lattice tagged with the vector clock of its latest update.

    Merge keeps the dominating version when one clock happens-before the
    other, and merges both the clocks and the payloads when the versions are
    concurrent.  The payload must itself be a lattice so concurrent merges
    are well-defined and deterministic.
    """

    __slots__ = ("clock", "payload")

    def __init__(self, clock: VectorClock | None = None, payload: Lattice | None = None) -> None:
        self.clock = clock if clock is not None else VectorClock()
        self.payload = payload

    def merge(self, other: "CausalValue") -> "CausalValue":
        if other.payload is None:
            return CausalValue(self.clock.merge(other.clock), self.payload)
        if self.payload is None:
            return CausalValue(self.clock.merge(other.clock), other.payload)
        if self.clock.happens_before(other.clock):
            return CausalValue(other.clock, other.payload)
        if other.clock.happens_before(self.clock):
            return CausalValue(self.clock, self.payload)
        if self.clock == other.clock and self.payload == other.payload:
            return CausalValue(self.clock, self.payload)
        return CausalValue(
            self.clock.merge(other.clock), self.payload.merge(other.payload)
        )

    @classmethod
    def bottom(cls) -> "CausalValue":
        return cls()

    def updated(self, node: Hashable, payload: Lattice) -> "CausalValue":
        """Return a new version: clock advanced at ``node`` with ``payload``."""
        return CausalValue(self.clock.advance(node), payload)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CausalValue)
            and self.clock == other.clock
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash(("CausalValue", self.clock, self.payload))

    def __repr__(self) -> str:
        return f"CausalValue(clock={self.clock!r}, payload={self.payload!r})"
