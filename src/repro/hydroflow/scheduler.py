"""The tick scheduler: fixpoint execution of a flow graph.

A tick drains every source and then runs one indexed worklist: a port is
enqueued on the ready queue the moment an emission lands in its buffer,
and each dispatch drains the port's whole buffer in one batched
``process`` call, until the queue is empty (the fixpoint).  Every operator
is monotone, so recursion through a cycle simply iterates until nothing
new is derived.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.hydroflow.graph import FlowGraph, Port
from repro.hydroflow.operators import Operator, SinkOperator, SourceOperator

# A tick that needs more rounds than this is taken to diverge.
MAX_ROUNDS = 100_000


@dataclass
class TickResult:
    """Summary of one tick's execution."""

    tick: int
    rounds: int
    items_moved: int


class TickScheduler:
    """Executes a :class:`FlowGraph` one tick at a time.

    The graph is indexed at construction time (downstream fan-out, the
    operator behind each port); mutating the graph afterwards is
    unsupported.
    """

    def __init__(self, graph: FlowGraph) -> None:
        self.graph = graph
        self.tick_count = 0
        # Everything the dispatch loop needs is resolved once here, so a
        # dispatch is two dict hits and a call, never a name lookup
        # through the graph.
        self._downstream = {
            name: graph.downstream_ports(name) for name in graph.operator_names()
        }
        self._port_operator: dict[Port, Operator] = {
            port: graph.operator(port.operator)
            for ports in self._downstream.values()
            for port in ports
        }
        # Per-port ingress buffers, pre-created so _emit never probes.
        self._buffers: dict[Port, list[Any]] = {port: [] for port in self._port_operator}
        self._sources: list[SourceOperator] = [
            operator for operator in graph.operators()
            if isinstance(operator, SourceOperator)
        ]
        self._ready: deque[Port] = deque()
        self._queued: set[Port] = set()

    def run_tick(self) -> TickResult:
        """Run one tick: drain the sources, then run the flow to fixpoint."""
        self.tick_count += 1
        for operator in self._sources:
            self._emit(operator.name, operator.drain())

        queue = self._ready
        buffers = self._buffers
        port_operator = self._port_operator
        rounds = 0
        items_moved = 0
        while queue:
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise RuntimeError(
                    f"tick did not reach fixpoint within {MAX_ROUNDS} rounds; "
                    "likely a cycle that keeps deriving new items"
                )
            # One round dispatches the ports ready at the round's start;
            # emissions during the round queue up for the next round.
            for _ in range(len(queue)):
                port = queue.popleft()
                self._queued.discard(port)
                batch = buffers[port]
                if not batch:
                    continue
                buffers[port] = []
                items_moved += len(batch)
                output = port_operator[port].process(port.name, batch)
                self._emit(port.operator, output)
        return TickResult(tick=self.tick_count, rounds=rounds, items_moved=items_moved)

    def _emit(self, operator_name: str, items: list[Any]) -> None:
        if not items:
            return
        queued = self._queued
        for port in self._downstream[operator_name]:
            self._buffers[port].extend(items)
            if port not in queued:
                queued.add(port)
                self._ready.append(port)

    # -- conveniences -----------------------------------------------------------

    def push(self, source_name: str, items: list[Any]) -> None:
        """Push items into a named source operator for the next tick."""
        operator = self.graph.operator(source_name)
        if not isinstance(operator, SourceOperator):
            raise TypeError(f"{source_name!r} is not a SourceOperator")
        operator.push(items)

    def collected(self, sink_name: str) -> list[Any]:
        """Return the items currently collected at a named sink."""
        operator = self.graph.operator(sink_name)
        if not isinstance(operator, SinkOperator):
            raise TypeError(f"{sink_name!r} is not a SinkOperator")
        return list(operator.collected)
