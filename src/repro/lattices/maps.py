"""Map lattices: key-to-lattice dictionaries merged pointwise.

``MapLattice`` is the composition workhorse: the Anna-style KVS, HydroLogic
tables keyed by primary key, and per-actor state are all maps whose values
are themselves lattices.  Merging two maps unions their key sets and merges
values pointwise, which preserves the semilattice laws whenever the value
type does.

Construction is validated once: the public constructor type-checks every
value, while merge paths that only combine already-validated maps go through
:meth:`MapLattice._from_validated` and skip the re-check, so merging is
O(entries) dict work rather than O(entries) isinstance calls on top.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping

from repro.lattices.base import Lattice, sorted_mapping_repr


def _check_value(key: Hashable, value: object) -> None:
    if not isinstance(value, Lattice):
        raise TypeError(
            f"MapLattice values must be Lattice instances; "
            f"key {key!r} maps to {value!r}"
        )


class MapLattice(Lattice):
    """A map from hashable keys to lattice values, merged pointwise."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries: Mapping[Hashable, Lattice] | None = None) -> None:
        items = dict(entries) if entries else {}
        for key, value in items.items():
            _check_value(key, value)
        self.entries: dict[Hashable, Lattice] = items
        self._hash: int | None = None

    @classmethod
    def _from_validated(cls, entries: dict[Hashable, Lattice]) -> "MapLattice":
        """Wrap ``entries`` without copying or re-validating.

        Internal fast path for merge results whose values are known to be
        lattices already.  The dict is adopted, not copied: the caller hands
        over ownership.
        """
        lattice = object.__new__(cls)
        lattice.entries = entries
        lattice._hash = None
        return lattice

    def merge(self, other: "MapLattice") -> "MapLattice":
        mine = self.entries
        merged = None
        # ``other`` is the whole join iff every key of ``self`` is one where
        # ``other``'s value is the join (``adopted``) or an equal of
        # ``self``'s (checked among ``kept``, only once ``other`` added
        # something).
        adopted, kept = 0, []
        for key, value in other.entries.items():
            current = mine.get(key)
            if current is None:
                joined = value
            else:
                joined = current.merge(value)
                if joined is value:
                    adopted += 1
                elif joined is current:
                    kept.append((current, value))
            if joined is not current:
                if merged is None:
                    merged = dict(mine)
                merged[key] = joined
        if merged is None:
            return self
        if adopted + len(kept) == len(mine) and all(
                current.leq(value) for current, value in kept):
            return other
        return MapLattice._from_validated(merged)

    @classmethod
    def bottom(cls) -> "MapLattice":
        return cls()

    # -- monotone update helpers ------------------------------------------------

    def insert(self, key: Hashable, value: Lattice) -> "MapLattice":
        """Return a new map with ``value`` merged into ``key``'s entry."""
        _check_value(key, value)
        merged = dict(self.entries)
        current = merged.get(key)
        merged[key] = value if current is None else current.merge(value)
        return MapLattice._from_validated(merged)

    def leq(self, other: "MapLattice") -> bool:
        if not isinstance(other, MapLattice):
            return super().leq(other)
        other_entries = other.entries
        for key, value in self.entries.items():
            current = other_entries.get(key)
            if current is None or not value.leq(current):
                return False
        return True

    def get(self, key: Hashable, default: Lattice | None = None) -> Lattice | None:
        return self.entries.get(key, default)

    def keys(self):
        return self.entries.keys()

    def values(self):
        return self.entries.values()

    def items(self):
        return self.entries.items()

    def __getitem__(self, key: Hashable) -> Lattice:
        return self.entries[key]

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MapLattice) and self.entries == other.entries

    def __hash__(self) -> int:
        # Cached: computing it walks every entry, and hash consumers (dedup
        # tables, dict keys) call it repeatedly on the same value.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(("MapLattice", frozenset(self.entries.items())))
        return cached

    def __repr__(self) -> str:
        return f"MapLattice({sorted_mapping_repr(self.entries)})"
