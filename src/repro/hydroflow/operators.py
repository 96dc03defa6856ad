"""Core Hydroflow operators over streaming collections.

Operators receive batches of items on named input ports and emit batches of
items downstream.  Stateless operators (map, filter, flat_map, union) simply
transform what arrives in the current scheduler round.  Stateful operators
(distinct, join, fold, difference) accumulate state that persists for the
duration of a tick, and — when marked ``persistent`` — across ticks, which
is how HydroLogic tables are realised in the flow.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Hashable, Iterable, Sequence


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

    def flush(self) -> list[Any]:
        """Emit any items that only become available at end-of-round.

        Blocking operators (fold over a whole tick's input, difference)
        override this; the scheduler calls it once per stratum after the
        stratum's fixpoint is reached.
        """
        return []

    def end_of_tick(self) -> None:
        """Reset per-tick state; persistent state survives."""

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

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)


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


class FlatMapOperator(Operator):
    """Applies a function returning an iterable and flattens the results."""

    def __init__(self, name: str, func: Callable[[Any], Iterable[Any]]) -> None:
        super().__init__(name)
        self.func = func

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        output: list[Any] = []
        for item in batch:
            output.extend(self.func(item))
        return output


class UnionOperator(Operator):
    """Merges multiple input streams into one (bag union)."""

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        return list(batch)


class DistinctOperator(Operator):
    """Suppresses duplicates; set semantics over the stream.

    ``persistent=True`` keeps the seen-set across ticks, turning the operator
    into a grow-only materialised set — exactly a SetUnion lattice in
    operator form.
    """

    def __init__(self, name: str, persistent: bool = True) -> None:
        super().__init__(name)
        self.persistent = persistent
        self._seen: set[Hashable] = set()

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        fresh: list[Any] = []
        for item in batch:
            if item not in self._seen:
                self._seen.add(item)
                fresh.append(item)
        return fresh

    def end_of_tick(self) -> None:
        if not self.persistent:
            self._seen.clear()

    @property
    def contents(self) -> set[Hashable]:
        return set(self._seen)


class HashJoinOperator(Operator):
    """Symmetric hash join on key functions over ``left`` and ``right`` ports.

    Emits ``(key, left_item, right_item)`` for every matching pair.  The
    join is pipelined: each arriving item probes the opposite side's table
    immediately, so recursive queries through a join make progress within a
    tick's fixpoint loop.
    """

    def __init__(
        self,
        name: str,
        left_key: Callable[[Any], Hashable],
        right_key: Callable[[Any], Hashable],
        persistent: bool = False,
    ) -> None:
        super().__init__(name)
        self.left_key = left_key
        self.right_key = right_key
        self.persistent = persistent
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

    def _dedupe(self, pairs: list[Any]) -> list[Any]:
        fresh = []
        for pair in pairs:
            try:
                marker = pair
                if marker in self._emitted:
                    continue
                self._emitted.add(marker)
            except TypeError:
                # Unhashable payloads fall back to emitting every match.
                pass
            fresh.append(pair)
        return fresh

    def end_of_tick(self) -> None:
        if not self.persistent:
            self._left_table.clear()
            self._right_table.clear()
            self._emitted.clear()


class FoldOperator(Operator):
    """Aggregates the whole tick's input into a single value.

    Folding is a blocking (non-monotone over streams) operation: the result
    is only emitted by :meth:`flush` once its stratum has quiesced, which is
    how stratified negation and aggregation are sequenced.  The scheduler
    calls :meth:`flush` repeatedly while driving a stratum to its flush
    fixpoint, so the fold tracks whether new input arrived since the last
    flush: a clean fold flushes nothing, a dirty one re-emits the updated
    accumulator (the late-arrival re-flush the fixpoint requires).
    """

    def __init__(
        self,
        name: str,
        initial: Any,
        func: Callable[[Any, Any], Any],
        persistent: bool = False,
        emit_if_empty: bool = False,
    ) -> None:
        super().__init__(name)
        self.initial = initial
        self.func = func
        self.persistent = persistent
        self.emit_if_empty = emit_if_empty
        self._accumulator = initial
        self._dirty = False
        self._flushed_this_tick = False

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        for item in batch:
            self._accumulator = self.func(self._accumulator, item)
            self._dirty = True
        return []

    def flush(self) -> list[Any]:
        if self._dirty or (self.emit_if_empty and not self._flushed_this_tick):
            self._dirty = False
            self._flushed_this_tick = True
            return [self._accumulator]
        return []

    def end_of_tick(self) -> None:
        if not self.persistent:
            self._accumulator = self.initial
        self._dirty = False
        self._flushed_this_tick = False

    @property
    def value(self) -> Any:
        return self._accumulator


class DifferenceOperator(Operator):
    """Emits items on ``pos`` that never appear on ``neg`` (anti-join).

    The negative side must be complete before anything is emitted, so the
    output is produced in :meth:`flush`; the scheduler places the operator in
    a later stratum than the producers of its negative input.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._positive: list[Any] = []
        self._negative: set[Hashable] = set()

    def input_ports(self) -> Sequence[str]:
        return ("pos", "neg")

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        if port == "pos":
            self._positive.extend(batch)
        elif port == "neg":
            self._negative.update(batch)
        else:
            raise ValueError(f"difference {self.name!r} has no port {port!r}")
        return []

    def flush(self) -> list[Any]:
        output = [item for item in self._positive if item not in self._negative]
        self._positive = []
        return output

    def end_of_tick(self) -> None:
        self._positive = []
        self._negative = set()


class SinkOperator(Operator):
    """Collects everything that reaches it; the flow's observable output."""

    def __init__(self, name: str, persistent: bool = False) -> None:
        super().__init__(name)
        self.persistent = persistent
        self.collected: list[Any] = []

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        self.collected.extend(batch)
        return []

    def end_of_tick(self) -> None:
        if not self.persistent:
            self.collected = []

    def take(self) -> list[Any]:
        """Return and clear the collected items."""
        items, self.collected = self.collected, []
        return items
