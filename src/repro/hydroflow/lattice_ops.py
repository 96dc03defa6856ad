"""Lattice-aware Hydroflow operators.

The paper's key algebra-design goal (§8.1) is that lattices beyond
collection types flow through the graph the same way sets do: a COUNT over a
set should pipeline as an integer lattice.  These operators make that
concrete:

* :class:`LatticeMergeOperator` folds arriving lattice points into a growing
  state and emits the state only when it actually grew, so downstream
  operators see a monotone stream of ever-larger values.
* :class:`LatticeMapOperator` applies a (declared-monotone) function to each
  arriving lattice point.
* :class:`LatticeThresholdOperator` is the monotone-to-boolean bridge: it
  emits once, when the accumulated lattice state first passes a threshold
  predicate.  Thresholds are where coordination concerns appear, because a
  threshold read is only deterministic when the input has stopped growing.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.lattices.base import BOTTOM, Lattice
from repro.hydroflow.operators import Operator


def _accumulate(state: Any, item: Lattice) -> tuple[Any, bool]:
    """One step of a lattice fold: ``(new_state, grew)``.

    For types with a fast ``leq`` override, a no-op item is detected without
    allocating; types still on the base merge-derived ``leq`` get a single
    merge-then-compare instead (paying the fallback ``leq`` *and* the merge
    would double the work).
    """
    if isinstance(state, Lattice):
        if type(item).leq is not Lattice.leq:
            if item.leq(state):
                return state, False
        else:
            merged = state.merge(item)
            if merged == state:
                return state, False
            return merged, True
    elif item.is_bottom():  # state is BOTTOM, a bottom item cannot grow it
        return state, False
    return state.merge(item), True


class LatticeMergeOperator(Operator):
    """Accumulates arriving lattice values into a single growing state."""

    def __init__(self, name: str, initial: Lattice | None = None, persistent: bool = True) -> None:
        super().__init__(name)
        self.persistent = persistent
        self._initial = initial
        self.state: Any = initial if initial is not None else BOTTOM

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        grew = False
        for item in batch:
            if not isinstance(item, Lattice):
                raise TypeError(
                    f"lattice merge {self.name!r} received non-lattice item {item!r}"
                )
            self.state, step_grew = _accumulate(self.state, item)
            grew = grew or step_grew
        return [self.state] if grew else []

    def end_of_tick(self) -> None:
        if not self.persistent:
            self.state = self._initial if self._initial is not None else BOTTOM


class LatticeMapOperator(Operator):
    """Applies a function to each arriving lattice value.

    The function should be monotone for the overall flow to remain monotone;
    the HydroLogic monotonicity checker verifies declarations, and this
    operator simply records whether the function was declared monotone so
    compiler passes can inspect the property.
    """

    def __init__(self, name: str, func: Callable[[Any], Any], declared_monotone: bool = True) -> None:
        super().__init__(name)
        self.func = func
        self.declared_monotone = declared_monotone

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        return [self.func(item) for item in batch]


class LatticeThresholdOperator(Operator):
    """Fires once when the accumulated lattice state satisfies a predicate.

    The predicate must be upward-closed (once true it stays true as the
    lattice grows); that is what makes the single emission deterministic and
    is the algebraic content of "sealing" and other threshold tests.
    """

    def __init__(
        self,
        name: str,
        predicate: Callable[[Any], bool],
        initial: Lattice | None = None,
        emit: Callable[[Any], Any] | None = None,
    ) -> None:
        super().__init__(name)
        self.predicate = predicate
        self.emit = emit or (lambda state: state)
        self.state: Any = initial if initial is not None else BOTTOM
        self.fired = False

    def process(self, port: str, batch: list[Any]) -> list[Any]:
        self.items_processed += len(batch)
        for item in batch:
            if not isinstance(item, Lattice):
                raise TypeError(
                    f"threshold {self.name!r} received non-lattice item {item!r}"
                )
            self.state, _ = _accumulate(self.state, item)
        if not self.fired and self.predicate(self.state):
            self.fired = True
            return [self.emit(self.state)]
        return []

    def end_of_tick(self) -> None:
        """Threshold state persists across ticks; firing is once per lifetime."""
