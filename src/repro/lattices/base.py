"""The join-semilattice protocol shared by all lattice types.

A join-semilattice is a set equipped with a binary *join* (here ``merge``)
that is associative, commutative and idempotent.  The join induces a partial
order: ``a <= b`` iff ``a.merge(b) == b``.  Lattice state only ever grows in
that order, which is exactly the monotonicity property the CALM theorem ties
to coordination-free distributed execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Mapping, TypeVar

L = TypeVar("L", bound="Lattice")


def sorted_mapping_repr(mapping: Mapping[Hashable, object]) -> str:
    """``repr`` of ``mapping``'s entries in ``repr(key)`` order, never in
    insertion order: the canonical body of a map-shaped lattice's ``repr``."""
    body = ", ".join(f"{key!r}: {value!r}" for key, value in sorted(
        mapping.items(), key=lambda item: repr(item[0])))
    return f"{{{body}}}"


def max_counts(mine: dict, theirs: dict) -> dict:
    """Pointwise max of two count maps that omit zero counts: ``mine``
    itself when ``theirs`` adds nothing, ``theirs`` itself when it is at
    least ``mine`` everywhere, else a new dict.  Decided in one pass."""
    merged = None
    covered = 0  # keys of ``mine`` whose count ``theirs`` matches or beats
    for key, count in theirs.items():
        held = mine.get(key, 0)
        if count > held:
            if merged is None:
                merged = dict(mine)
            merged[key] = count
        if count >= held > 0:
            covered += 1
    if merged is None:
        return mine
    return theirs if covered == len(mine) else merged


class Lattice(ABC):
    """Abstract join-semilattice.

    Subclasses must implement :meth:`merge` and :meth:`bottom`, and should be
    immutable value objects: ``merge`` never mutates its operands, and it
    returns an operand when it already is the join, ``self`` on a tie, so
    only a genuinely concurrent join allocates.  Nothing may rely on
    ``merge`` returning a fresh object.  Equality and hashing are defined on
    the wrapped value so that lattice points can be used as dictionary keys
    and compared structurally in tests.

    ``repr`` is canonical: equal values print alike and unequal values print
    differently.  The structural fold behind ``payload_digest`` and every
    ``DigestTree`` entry digest hashes a slotted lattice's ``repr``, so a
    ``repr`` that follows insertion order or omits a compared field makes
    equal replicas look divergent to anti-entropy, or hides a real
    difference from it.  (Leaves keep their own ``repr``: ``1`` and ``1.0``
    are equal but print differently, so a value mixing the two is outside
    the contract.)

    Two slots, ``_tree_key`` and ``_tree_entry``, are the only attributes
    written after construction: the last key a ``DigestTree`` entered the
    value under and that entry's int (the key's leaf and the entry
    digest), so the other replicas that store the same object reuse the
    entry instead of hashing the key and folding the value again.  The
    memo is a pure function of the key and of content that never changes;
    no ``merge``, ``==``, ``hash`` or ``repr`` reads it, and a value that
    was never entered leaves both slots unset.
    """

    __slots__ = ("_tree_key", "_tree_entry")

    @abstractmethod
    def merge(self: L, other: L) -> L:
        """Return the least upper bound of ``self`` and ``other``: ``self``
        when ``other`` precedes it (a tie included), ``other`` when it
        strictly follows ``self``, else a new value."""

    @classmethod
    @abstractmethod
    def bottom(cls: type[L]) -> L:
        """Return the bottom (identity) element of this lattice."""

    # -- induced partial order -------------------------------------------------

    def leq(self: L, other: L) -> bool:
        """Return True iff ``self`` precedes ``other`` in the lattice order."""
        return self.merge(other) == other

    def dominates(self: L, other: L) -> bool:
        """Return True iff ``other`` precedes ``self`` in the lattice order."""
        return other.merge(self) == self

    def is_bottom(self) -> bool:
        """Return True iff this value equals the lattice's bottom element."""
        return self == type(self).bottom()

    # -- operator sugar --------------------------------------------------------

    def __or__(self: L, other: L) -> L:
        """``a | b`` is shorthand for ``a.merge(b)``."""
        return self.merge(other)

    def __le__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.leq(other)

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.dominates(other)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.leq(other) and self != other

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.dominates(other) and self != other


class _Bottom:
    """A polymorphic bottom marker usable before the lattice type is known.

    ``BOTTOM.merge(x)`` returns ``x`` for any lattice ``x``; this lets
    runtime state cells start life without committing to a lattice type
    until the first merge arrives.
    """

    __slots__ = ()

    def merge(self, other: L) -> L:
        return other

    def leq(self, other: object) -> bool:
        return True

    def is_bottom(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "BOTTOM"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Bottom) or (
            isinstance(other, Lattice) and other.is_bottom()
        )

    def __hash__(self) -> int:
        return hash("repro.lattices.BOTTOM")


#: Polymorphic bottom element: merges with any lattice value to that value.
BOTTOM = _Bottom()

