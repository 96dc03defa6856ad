"""The Hydroflow operator graph: operators, ports and edges.

A :class:`FlowGraph` is a directed graph of operators.  Each operator exposes
named input ports (most have a single ``"in"`` port; joins have ``"left"``
and ``"right"``) and produces a single output stream that can fan out to any
number of downstream ports.  The graph is data: the Hydrolysis lowering
builds it and the scheduler executes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.hydroflow.operators import Operator


@dataclass(frozen=True)
class Port:
    """An input port of an operator, addressed as (operator name, port name)."""

    operator: str
    name: str = "in"

    def __repr__(self) -> str:
        return f"{self.operator}.{self.name}"


class FlowGraph:
    """A mutable graph of named operators connected by edges."""

    def __init__(self, name: str = "flow") -> None:
        self.name = name
        self._operators: dict[str, "Operator"] = {}
        self._downstream: dict[str, list[Port]] = {}

    def add(self, operator: "Operator") -> "Operator":
        """Add an operator; names must be unique within the graph."""
        if operator.name in self._operators:
            raise ValueError(f"operator {operator.name!r} already exists in {self.name!r}")
        self._operators[operator.name] = operator
        self._downstream[operator.name] = []
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
        self._downstream[source_name].append(Port(target_name, port))

    def operator(self, name: str) -> "Operator":
        return self._operators[name]

    def operators(self) -> Iterator["Operator"]:
        return iter(self._operators.values())

    def operator_names(self) -> list[str]:
        return list(self._operators)

    def downstream_ports(self, operator_name: str) -> list[Port]:
        """All input ports fed by ``operator_name``'s output, in connection order."""
        return list(self._downstream[operator_name])
