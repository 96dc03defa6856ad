"""Hydroflow operators over streaming collections.

Operators receive batches of items on named input ports and emit batches of
items downstream.  Map and filter transform what arrives in the current
scheduler round.  Distinct and the hash join keep their state for the life
of the operator, across ticks, which is how HydroLogic tables are realised
in the flow.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Hashable, Iterable, Sequence


def _row_marker(item: Any) -> Hashable:
    """A hashable stand-in for ``item``, frozen all the way down: a dict (a
    HydroLogic row) becomes its sorted items, a list or tuple a tuple, a set
    a frozenset; anything else is its own marker."""
    if isinstance(item, dict):
        return tuple(sorted((key, _row_marker(value)) for key, value in item.items()))
    if isinstance(item, (list, tuple)):
        return tuple(_row_marker(value) for value in item)
    if isinstance(item, (set, frozenset)):
        return frozenset(_row_marker(value) for value in item)
    return item


class Operator(ABC):
    """Base class: a named transformer from input batches to an output batch."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.items_processed = 0

    def input_ports(self) -> Sequence[str]:
        """Names of this operator's input ports (default: a single ``in``)."""
        return ("in",)

    @abstractmethod
    def process(self, port: str, batch: list[Any]) -> list[Any]:
        """Consume a batch arriving on ``port`` and return emitted items."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class SourceOperator(Operator):
    """Injects externally supplied items into the flow at the start of a tick."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._pending: list[Any] = []

    def push(self, items: Iterable[Any]) -> None:
        """Queue items for emission on the next scheduler round."""
        self._pending.extend(items)

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        # Sources also accept items pushed through an edge (useful for loops).
        self.items_processed += len(batch)
        return list(batch)

    def drain(self) -> list[Any]:
        items, self._pending = self._pending, []
        self.items_processed += len(items)
        return items


class MapOperator(Operator):
    """Applies a function to every item."""

    def __init__(self, name: str, func: Callable[[Any], Any]) -> None:
        super().__init__(name)
        self.func = func

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        return [self.func(item) for item in batch]


class FilterOperator(Operator):
    """Keeps items satisfying a predicate."""

    def __init__(self, name: str, predicate: Callable[[Any], bool]) -> None:
        super().__init__(name)
        self.predicate = predicate

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        return [item for item in batch if self.predicate(item)]


class DistinctOperator(Operator):
    """Suppresses duplicates across ticks: a grow-only materialised set.

    A dict row is remembered by its :func:`_row_marker`; the row itself is
    what flows on.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._seen: set[Hashable] = set()

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        fresh: list[Any] = []
        for item in batch:
            marker = _row_marker(item)
            if marker not in self._seen:
                self._seen.add(marker)
                fresh.append(item)
        return fresh


class HashJoinOperator(Operator):
    """Symmetric hash join on key functions over ``left`` and ``right`` ports.

    Emits ``(key, left_item, right_item)`` for every matching pair, once
    across ticks: a match is remembered by its items' :func:`_row_marker`.
    The join is pipelined: each arriving item probes the opposite side's
    table immediately, so recursive queries through a join make progress
    within a tick's fixpoint loop.
    """

    def __init__(
        self,
        name: str,
        left_key: Callable[[Any], Hashable],
        right_key: Callable[[Any], Hashable],
    ) -> None:
        super().__init__(name)
        self.left_key = left_key
        self.right_key = right_key
        self._left_table: dict[Hashable, list[Any]] = {}
        self._right_table: dict[Hashable, list[Any]] = {}
        self._emitted: set[Hashable] = set()

    def input_ports(self) -> Sequence[str]:
        return ("left", "right")

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        output: list[Any] = []
        if port == "left":
            for item in batch:
                key = self.left_key(item)
                self._left_table.setdefault(key, []).append(item)
                for other in self._right_table.get(key, ()):
                    output.append((key, item, other))
        elif port == "right":
            for item in batch:
                key = self.right_key(item)
                self._right_table.setdefault(key, []).append(item)
                for other in self._left_table.get(key, ()):
                    output.append((key, other, item))
        else:
            raise ValueError(f"join {self.name!r} has no port {port!r}")
        return self._dedupe(output)

    def _dedupe(self, matches: list[Any]) -> list[Any]:
        fresh = []
        for match in matches:
            key, left, right = match
            marker = (key, _row_marker(left), _row_marker(right))
            if marker not in self._emitted:
                self._emitted.add(marker)
                fresh.append(match)
        return fresh


class SinkOperator(Operator):
    """Collects everything that reaches it; the flow's observable output."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.collected: list[Any] = []

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        self.collected.extend(batch)
        return []
