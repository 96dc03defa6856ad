"""Reactive scalar cells: the React.js/Rx side of the Hydroflow unification.

The paper wants the runtime to subsume reactive programming — ordered
streams of changes to individual mutable values — alongside dataflow over
collections and lattices (§2.3, §8.1).  :class:`ReactiveCell` is a mutable
value with observers; :class:`ReactiveGraph` wires derived cells whose
values are recomputed (glitch-free, in topological order) when their inputs
change.  Nothing compiles to them yet: HydroLogic ``var`` state lives in
the interpreter's :class:`~repro.core.state.ProgramState`.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable


class ReactiveCell:
    """A mutable value that notifies subscribers on change."""

    def __init__(self, name: str, value: Any = None) -> None:
        self.name = name
        self._value = value
        self._subscribers: list[Callable[[Any, Any], None]] = []
        self.version = 0

    @property
    def value(self) -> Any:
        return self._value

    def set(self, value: Any) -> bool:
        """Assign a new value; returns True if the value actually changed."""
        if value == self._value:
            return False
        old, self._value = self._value, value
        self.version += 1
        for subscriber in list(self._subscribers):
            subscriber(old, value)
        return True

    def update(self, func: Callable[[Any], Any]) -> bool:
        """Apply ``func`` to the current value and assign the result."""
        return self.set(func(self._value))

    def subscribe(self, callback: Callable[[Any, Any], None]) -> Callable[[], None]:
        """Register a change callback; returns an unsubscribe function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    def __repr__(self) -> str:
        return f"ReactiveCell({self.name!r}={self._value!r})"


class ReactiveGraph:
    """A network of source cells and derived cells recomputed on change.

    Derived cells declare their input cells and a compute function; when any
    input changes, derived cells are recomputed in dependency order so no
    observer ever sees a "glitch" (a state mixing old and new inputs).
    """

    def __init__(self) -> None:
        self._cells: dict[str, ReactiveCell] = {}
        self._derivations: dict[str, tuple[list[str], Callable[..., Any]]] = {}
        self._order: list[str] = []
        self.recomputations = 0

    def cell(self, name: str, value: Any = None) -> ReactiveCell:
        """Create (or fetch) a source cell."""
        if name not in self._cells:
            self._cells[name] = ReactiveCell(name, value)
        return self._cells[name]

    def derive(self, name: str, inputs: list[str], compute: Callable[..., Any]) -> ReactiveCell:
        """Create a derived cell recomputed from ``inputs`` via ``compute``."""
        if name in self._derivations:
            raise ValueError(f"derived cell {name!r} already defined")
        for input_name in inputs:
            if input_name not in self._cells:
                raise KeyError(f"unknown input cell {input_name!r}")
        cell = self.cell(name)
        self._derivations[name] = (inputs, compute)
        self._order = self._topological_order()
        self._recompute(name)
        return cell

    def get(self, name: str) -> Any:
        return self._cells[name].value

    def set(self, name: str, value: Any) -> None:
        """Set a source cell and propagate to all derived cells in order."""
        if name in self._derivations:
            raise ValueError(f"cannot set derived cell {name!r} directly")
        changed = self._cells[name].set(value)
        if not changed:
            return
        for derived in self._order:
            self._recompute(derived)

    def _recompute(self, name: str) -> None:
        inputs, compute = self._derivations[name]
        values = [self._cells[input_name].value for input_name in inputs]
        self.recomputations += 1
        self._cells[name].set(compute(*values))

    def _topological_order(self) -> list[str]:
        order: list[str] = []
        visited: dict[str, int] = {}

        def visit(name: str) -> None:
            state = visited.get(name, 0)
            if state == 2:
                return
            if state == 1:
                raise ValueError(f"reactive dependency cycle through {name!r}")
            visited[name] = 1
            for dependent, (inputs, _) in self._derivations.items():
                if name in inputs:
                    pass
            visited[name] = 2

        # Simple Kahn over derivation dependencies (inputs may themselves be derived).
        remaining = dict(self._derivations)
        resolved: set[str] = {
            name for name in self._cells if name not in self._derivations
        }
        while remaining:
            progress = False
            for name, (inputs, _) in sorted(remaining.items()):
                if all(input_name in resolved for input_name in inputs):
                    order.append(name)
                    resolved.add(name)
                    del remaining[name]
                    progress = True
                    break
            if not progress:
                raise ValueError("reactive dependency cycle detected")
        return order
