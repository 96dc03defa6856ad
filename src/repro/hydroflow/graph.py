"""The Hydroflow operator graph: operators, ports and edges.

A :class:`FlowGraph` is a directed graph of operators.  Each operator exposes
named input ports (most have a single ``"in"`` port; joins have ``"left"``
and ``"right"``) and produces a single output stream that can fan out to any
number of downstream ports.  The graph is data: the Hydrolysis compiler
builds and rewrites it, the scheduler executes it, and tests inspect it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.hydroflow.operators import Operator


@dataclass(frozen=True)
class Port:
    """An input port of an operator, addressed as (operator name, port name)."""

    operator: str
    name: str = "in"

    def __repr__(self) -> str:
        return f"{self.operator}.{self.name}"


@dataclass
class Edge:
    """A dataflow edge from an operator's output to a downstream port."""

    source: str
    target: Port


class FlowGraph:
    """A mutable graph of named operators connected by edges."""

    def __init__(self, name: str = "flow") -> None:
        self.name = name
        self._operators: dict[str, "Operator"] = {}
        self._edges: list[Edge] = []

    # -- construction -----------------------------------------------------------

    def add(self, operator: "Operator") -> "Operator":
        """Add an operator; names must be unique within the graph."""
        if operator.name in self._operators:
            raise ValueError(f"operator {operator.name!r} already exists in {self.name!r}")
        self._operators[operator.name] = operator
        return operator

    def connect(self, source: "Operator | str", target: "Operator | str", port: str = "in") -> None:
        """Connect ``source``'s output to ``target``'s input ``port``."""
        source_name = source if isinstance(source, str) else source.name
        target_name = target if isinstance(target, str) else target.name
        if source_name not in self._operators:
            raise KeyError(f"unknown source operator {source_name!r}")
        if target_name not in self._operators:
            raise KeyError(f"unknown target operator {target_name!r}")
        target_op = self._operators[target_name]
        if port not in target_op.input_ports():
            raise ValueError(
                f"operator {target_name!r} has no input port {port!r}; "
                f"available: {sorted(target_op.input_ports())}"
            )
        self._edges.append(Edge(source_name, Port(target_name, port)))

    # -- lookup -----------------------------------------------------------------

    def operator(self, name: str) -> "Operator":
        return self._operators[name]

    def operators(self) -> Iterator["Operator"]:
        return iter(self._operators.values())

    def operator_names(self) -> list[str]:
        return list(self._operators)

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def __len__(self) -> int:
        return len(self._operators)

    def downstream_ports(self, operator_name: str) -> list[Port]:
        """All input ports fed by ``operator_name``'s output."""
        return [edge.target for edge in self._edges if edge.source == operator_name]

    def edges(self) -> list[Edge]:
        return list(self._edges)

    # -- analysis ---------------------------------------------------------------

    def sources(self) -> list[str]:
        """Operators with no upstream edges."""
        fed = {edge.target.operator for edge in self._edges}
        return [name for name in self._operators if name not in fed]

    def sinks(self) -> list[str]:
        """Operators with no downstream edges."""
        feeding = {edge.source for edge in self._edges}
        return [name for name in self._operators if name not in feeding]

    def has_cycle(self) -> bool:
        """True iff the graph contains a directed cycle (recursive query)."""
        color: dict[str, int] = {}

        def visit(node: str) -> bool:
            color[node] = 1
            for port in self.downstream_ports(node):
                nxt = port.operator
                state = color.get(nxt, 0)
                if state == 1:
                    return True
                if state == 0 and visit(nxt):
                    return True
            color[node] = 2
            return False

        return any(color.get(name, 0) == 0 and visit(name) for name in self._operators)

    def topological_order(self) -> list[str]:
        """Kahn topological order; raises on cycles.

        Cyclic graphs (recursive queries) are legal at runtime — the
        scheduler iterates to fixpoint — but some optimizer passes need an
        acyclic order and call this to detect when they cannot have one.
        """
        in_degree = {name: 0 for name in self._operators}
        for edge in self._edges:
            in_degree[edge.target.operator] += 1
        ready = sorted(name for name, degree in in_degree.items() if degree == 0)
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for port in self.downstream_ports(node):
                in_degree[port.operator] -= 1
                if in_degree[port.operator] == 0:
                    ready.append(port.operator)
            ready.sort()
        if len(order) != len(self._operators):
            raise ValueError(f"graph {self.name!r} has a cycle; no topological order exists")
        return order

    def validate(self) -> None:
        """Check structural invariants: all edges reference known operators/ports."""
        for edge in self._edges:
            if edge.source not in self._operators:
                raise ValueError(f"edge references unknown source {edge.source!r}")
            if edge.target.operator not in self._operators:
                raise ValueError(f"edge references unknown target {edge.target.operator!r}")

    def describe(self) -> str:
        """A human-readable listing used in compiler explain output."""
        lines = [f"FlowGraph {self.name!r}:"]
        for name, operator in self._operators.items():
            targets = ", ".join(repr(port) for port in self.downstream_ports(name)) or "(sink)"
            lines.append(f"  {name} [{type(operator).__name__}] -> {targets}")
        return "\n".join(lines)
