"""Last-writer-wins registers.

A LWW register totally orders updates by a (timestamp, tiebreak) pair and
keeps the largest.  It is the standard way to wrap an arbitrary, otherwise
non-lattice value into a lattice: merge is associative, commutative and
idempotent because it is just "max by timestamp".  The cost is that
concurrent writes are resolved arbitrarily (by the tiebreak), which is why
the paper treats bare assignment (``:=``) as a non-monotone mutation that may
need coordination when applications care about which write wins.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.lattices.base import Lattice


class LWWRegister(Lattice):
    """A register keeping the value with the largest (timestamp, tiebreak)."""

    __slots__ = ("timestamp", "tiebreak", "value")

    def __init__(
        self,
        timestamp: float = float("-inf"),
        value: Any = None,
        tiebreak: Hashable = "",
    ) -> None:
        self.timestamp = timestamp
        self.value = value
        self.tiebreak = tiebreak

    def _at_least(self, other: "LWWRegister") -> bool:
        """``self >= other`` in the total order (timestamp, tiebreak,
        ``repr(value)``).  The last component only keeps merge commutative
        when two writes collide on (timestamp, tiebreak), so it is formatted
        only on such a tie between two different value objects (a register
        merged with a copy of itself shares its value)."""
        if self.timestamp != other.timestamp:
            return self.timestamp > other.timestamp
        # Tiebreaks are normalised to strings so heterogeneous ids compare.
        mine, theirs = str(self.tiebreak), str(other.tiebreak)
        if mine != theirs:
            return mine > theirs
        return (self.value is other.value
                or repr(self.value) >= repr(other.value))

    def merge(self, other: "LWWRegister") -> "LWWRegister":
        return self if self._at_least(other) else other

    def leq(self, other: "LWWRegister") -> bool:
        if not isinstance(other, LWWRegister):
            return super().leq(other)
        return other._at_least(self)

    @classmethod
    def bottom(cls) -> "LWWRegister":
        return cls()

    def write(self, timestamp: float, value: Any, tiebreak: Hashable = "") -> "LWWRegister":
        """Return the register after merging in a new timestamped write."""
        return self.merge(LWWRegister(timestamp, value, tiebreak))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LWWRegister)
            and self.timestamp == other.timestamp
            and self.value == other.value
            and self.tiebreak == other.tiebreak
        )

    def __hash__(self) -> int:
        try:
            value_hash = hash(self.value)
        except TypeError:
            value_hash = hash(repr(self.value))
        return hash(("LWWRegister", self.timestamp, value_hash, self.tiebreak))

    def __repr__(self) -> str:
        # The tiebreak is part of equality, so it prints.  An empty one
        # prints nothing: a register written without one keeps the short
        # form that pinned trace and benchmark digests hash.
        tiebreak = "" if self.tiebreak == "" else f", tiebreak={self.tiebreak!r}"
        return f"LWWRegister(t={self.timestamp}, value={self.value!r}{tiebreak})"

