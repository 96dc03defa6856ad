"""Set-valued lattices: grow-only sets and two-phase (add/remove) sets.

``SetUnion`` is the workhorse lattice of the paper's running example
(``people``, ``contacts``): elements are only ever added, so union merge is
associative, commutative and idempotent and the collection grows
monotonically.  ``TwoPhaseSet`` layers tombstones on top to model the
non-monotone-looking ``delete`` used by the MPI gather example while staying
a lattice (an element, once removed, stays removed).
"""

from __future__ import annotations

from typing import AbstractSet, Hashable, Iterable, Iterator

from repro.lattices.base import Lattice


class SetUnion(Lattice):
    """Grow-only set lattice under union; bottom is the empty set."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self.elements: frozenset = frozenset(elements)

    def merge(self, other: "SetUnion") -> "SetUnion":
        mine, theirs = self.elements, other.elements
        if theirs <= mine:
            return self
        if mine <= theirs:
            return other
        return SetUnion(mine | theirs)

    def leq(self, other: "SetUnion") -> bool:
        if not isinstance(other, SetUnion):
            return super().leq(other)
        return self.elements <= other.elements

    @classmethod
    def bottom(cls) -> "SetUnion":
        return cls()

    def add(self, element: Hashable) -> "SetUnion":
        """Return a new set with ``element`` merged in (monotone insert)."""
        return SetUnion(self.elements | {element})

    def contains(self, element: Hashable) -> bool:
        return element in self.elements

    def __contains__(self, element: Hashable) -> bool:
        return element in self.elements

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetUnion) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(("SetUnion", self.elements))

    def __repr__(self) -> str:
        return f"SetUnion({sorted(map(repr, self.elements))})"


class TwoPhaseSet(Lattice):
    """Add/remove set CRDT: a pair of grow-only sets (added, removed).

    Membership is "added and not removed"; removal wins permanently, which
    keeps the merge a simple pair-wise union and therefore a lattice join.
    """

    __slots__ = ("added", "removed")

    def __init__(
        self,
        added: Iterable[Hashable] = (),
        removed: Iterable[Hashable] = (),
    ) -> None:
        self.added: frozenset = frozenset(added)
        self.removed: frozenset = frozenset(removed)

    def merge(self, other: "TwoPhaseSet") -> "TwoPhaseSet":
        if other.added <= self.added and other.removed <= self.removed:
            return self
        if self.added <= other.added and self.removed <= other.removed:
            return other
        return TwoPhaseSet(self.added | other.added, self.removed | other.removed)

    def leq(self, other: "TwoPhaseSet") -> bool:
        if not isinstance(other, TwoPhaseSet):
            return super().leq(other)
        return self.added <= other.added and self.removed <= other.removed

    @classmethod
    def bottom(cls) -> "TwoPhaseSet":
        return cls()

    def add(self, element: Hashable) -> "TwoPhaseSet":
        """Return a new set with ``element`` in the added component."""
        return TwoPhaseSet(self.added | {element}, self.removed)

    def remove(self, element: Hashable) -> "TwoPhaseSet":
        """Return a new set with ``element`` tombstoned.

        Removing an element that was never added is allowed; the tombstone
        simply pre-empts any future add.
        """
        return TwoPhaseSet(self.added, self.removed | {element})

    @property
    def live(self) -> AbstractSet[Hashable]:
        """The currently visible membership: added minus removed."""
        return self.added - self.removed

    def contains(self, element: Hashable) -> bool:
        return element in self.added and element not in self.removed

    def __contains__(self, element: Hashable) -> bool:
        return element in self.added and element not in self.removed

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.live)

    def __len__(self) -> int:
        return len(self.added - self.removed)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TwoPhaseSet)
            and self.added == other.added
            and self.removed == other.removed
        )

    def __hash__(self) -> int:
        return hash(("TwoPhaseSet", self.added, self.removed))

    def __repr__(self) -> str:
        return f"TwoPhaseSet(added={sorted(map(repr, self.added))}, removed={sorted(map(repr, self.removed))})"
