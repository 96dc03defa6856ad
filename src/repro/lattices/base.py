"""The join-semilattice protocol shared by all lattice types.

A join-semilattice is a set equipped with a binary *join* (here ``merge``)
that is associative, commutative and idempotent.  The join induces a partial
order: ``a <= b`` iff ``a.merge(b) == b``.  Lattice state only ever grows in
that order, which is exactly the monotonicity property the CALM theorem ties
to coordination-free distributed execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, TypeVar

L = TypeVar("L", bound="Lattice")


class Lattice(ABC):
    """Abstract join-semilattice.

    Subclasses must implement :meth:`merge` and :meth:`bottom`, and should be
    immutable value objects: ``merge`` returns a *new* lattice value and never
    mutates its operands.  Equality and hashing are defined on the wrapped
    value so that lattice points can be used as dictionary keys and compared
    structurally in tests.
    """

    __slots__ = ()

    @abstractmethod
    def merge(self: L, other: L) -> L:
        """Return the least upper bound of ``self`` and ``other``."""

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


def join_all(values: Iterable[L], *, start: L | None = None) -> L | _Bottom:
    """Merge an iterable of lattice values into their least upper bound.

    ``start`` seeds the fold; when omitted the fold starts from the
    polymorphic :data:`BOTTOM`, so an empty iterable yields ``BOTTOM``.
    """
    accumulator: L | _Bottom = start if start is not None else BOTTOM
    for value in values:
        accumulator = accumulator.merge(value)
    return accumulator
