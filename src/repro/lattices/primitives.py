"""Primitive scalar lattices: booleans under OR and numbers under max.

``BoolOr`` holds the paper's monotone flags (``covid``, ``vaccinated``);
``MaxInt`` accepts any totally ordered numeric value (ints and floats), so
it serves as a max-counter or max-timestamp lattice.
"""

from __future__ import annotations

from typing import Union

from repro.lattices.base import Lattice

Number = Union[int, float]


class BoolOr(Lattice):
    """Boolean lattice under logical OR; bottom is False.

    Used for monotone "flag" state such as ``covid`` / ``vaccinated`` in the
    paper's running example: once set to True a flag never reverts.
    """

    __slots__ = ("value",)

    def __init__(self, value: bool = False) -> None:
        self.value = bool(value)

    def merge(self, other: "BoolOr") -> "BoolOr":
        return BoolOr(self.value or other.value)

    def leq(self, other: "BoolOr") -> bool:
        if not isinstance(other, BoolOr):
            return super().leq(other)
        return (not self.value) or other.value

    @classmethod
    def bottom(cls) -> "BoolOr":
        return cls(False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolOr) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("BoolOr", self.value))

    def __bool__(self) -> bool:
        return self.value

    def __repr__(self) -> str:
        return f"BoolOr({self.value})"


class MaxInt(Lattice):
    """Numeric lattice under ``max``; bottom is negative infinity.

    Despite the name this accepts floats as well as ints, so it doubles as a
    max-timestamp lattice.
    """

    __slots__ = ("value",)

    def __init__(self, value: Number = float("-inf")) -> None:
        self.value = value

    def merge(self, other: "MaxInt") -> "MaxInt":
        return MaxInt(self.value if self.value >= other.value else other.value)

    def leq(self, other: "MaxInt") -> bool:
        if not isinstance(other, MaxInt):
            return super().leq(other)
        return self.value <= other.value

    @classmethod
    def bottom(cls) -> "MaxInt":
        return cls(float("-inf"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaxInt) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("MaxInt", self.value))

    def __int__(self) -> int:
        return int(self.value)

    def __repr__(self) -> str:
        return f"MaxInt({self.value})"

