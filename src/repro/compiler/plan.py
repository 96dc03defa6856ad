"""Deployment plans: the compiler's output before instantiation.

A :class:`DeploymentPlan` records, per endpoint, everything later stages
need: the CALM analysis (the monotonicity verdict and the coordination
mechanism it implies), the replica placement chosen for the availability
facet, and the machine configuration chosen by the target-facet optimizer
(the cheapest option per handler); program-wide, each placed node's
availability zone in the compile's topology.  The consistency and target
facets reach the plan only through what they decided.  Plans are plain
data so they can be explained to developers and compared in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.core.facets import AvailabilitySpec
from repro.core.monotonicity import HandlerAnalysis
from repro.placement.ilp import ConfigurationOption


@dataclass
class EndpointPlan:
    """Everything the compiler decided about one endpoint."""

    handler: str
    analysis: HandlerAnalysis
    availability: AvailabilitySpec
    replicas: list[Hashable] = field(default_factory=list)
    machine_configuration: Optional[ConfigurationOption] = None

    @property
    def coordination_free(self) -> bool:
        return self.analysis.coordination_free

    @property
    def replica_count(self) -> int:
        return len(self.replicas)


@dataclass
class DeploymentPlan:
    """The full compiled plan for a program."""

    program_name: str
    endpoints: dict[str, EndpointPlan] = field(default_factory=dict)
    #: Placed node -> its availability zone in the compile's topology.
    zones: dict[Hashable, Hashable] = field(default_factory=dict)

    def endpoint(self, handler: str) -> EndpointPlan:
        return self.endpoints[handler]

    def coordinated_endpoints(self) -> list[str]:
        return [name for name, plan in self.endpoints.items() if not plan.coordination_free]

    @property
    def total_instances(self) -> int:
        return sum(
            plan.machine_configuration.instances
            for plan in self.endpoints.values()
            if plan.machine_configuration is not None
        )

    @property
    def total_hourly_cost(self) -> float:
        return sum(
            plan.machine_configuration.hourly_cost
            for plan in self.endpoints.values()
            if plan.machine_configuration is not None
        )

    def explain(self) -> str:
        """Human-readable compiler explain output."""
        lines = [f"Deployment plan for {self.program_name!r}:"]
        for name, plan in sorted(self.endpoints.items()):
            machine = (
                f"{plan.machine_configuration.instances} x {plan.machine_configuration.machine.name}"
                if plan.machine_configuration is not None
                else "unsized"
            )
            lines.append(
                f"  {name}: {plan.analysis.verdict.value}, "
                f"coordination={plan.analysis.mechanism.value}, "
                f"replicas={plan.replica_count} "
                f"({plan.availability.failures} failures @ {plan.availability.domain.value}), "
                f"machines={machine}"
            )
            for reason in plan.analysis.reasons:
                lines.append(f"      - {reason}")
        return "\n".join(lines)
