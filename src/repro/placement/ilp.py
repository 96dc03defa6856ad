"""The deployment integer program and its exact solver.

Following §9.1, the decision is which machine configuration serves each
handler and with how many instances.  The nonlinear queueing model is
handled by precomputing, per (handler, machine type), the minimum feasible
instance count; the remaining choice — exactly one machine type per handler,
minimising total instances or total hourly cost — is a pure assignment
problem, solved exactly by branch and bound
(:mod:`repro.placement.branch_and_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.core.facets import TargetSpec
from repro.placement.cost_models import HandlerLoadModel, PerformanceModel
from repro.placement.machines import DEFAULT_CATALOG, MachineType


@dataclass(frozen=True)
class ConfigurationOption:
    """One feasible (machine type, instance count) choice for a handler."""

    handler: str
    machine: MachineType
    instances: int
    latency_ms: float
    cost_per_request: float
    hourly_cost: float


@dataclass
class DeploymentProblem:
    """The full optimization input: loads, targets, catalogue, objective."""

    loads: dict[str, HandlerLoadModel]
    targets: dict[str, TargetSpec]
    catalog: list[MachineType] = field(default_factory=lambda: list(DEFAULT_CATALOG))
    objective: Literal["machines", "cost"] = "machines"
    performance_model: PerformanceModel = field(default_factory=PerformanceModel)

    def options(self) -> dict[str, list[ConfigurationOption]]:
        """Enumerate feasible configurations per handler."""
        model = self.performance_model
        all_options: dict[str, list[ConfigurationOption]] = {}
        for handler, load in self.loads.items():
            target = self.targets.get(handler, TargetSpec())
            handler_options: list[ConfigurationOption] = []
            for machine in self.catalog:
                instances = model.min_feasible_instances(load, target, machine)
                if instances is None:
                    continue
                if target.max_machines is not None and instances > target.max_machines:
                    continue
                handler_options.append(
                    ConfigurationOption(
                        handler=handler,
                        machine=machine,
                        instances=instances,
                        latency_ms=model.expected_latency_ms(load, machine, instances),
                        cost_per_request=model.cost_per_request(load, machine, instances),
                        hourly_cost=model.hourly_cost(machine, instances),
                    )
                )
            all_options[handler] = handler_options
        return all_options


@dataclass
class DeploymentSolution:
    """One assignment of a configuration per handler."""

    assignments: dict[str, ConfigurationOption]
    solver: str = "branch-and-bound"

    @property
    def total_instances(self) -> int:
        return sum(option.instances for option in self.assignments.values())

    @property
    def total_hourly_cost(self) -> float:
        return sum(option.hourly_cost for option in self.assignments.values())

    def satisfies(self, problem: DeploymentProblem) -> bool:
        """Re-check every constraint against the problem (used by tests)."""
        for handler, option in self.assignments.items():
            target = problem.targets.get(handler, TargetSpec())
            if target.latency_ms is not None and option.latency_ms > target.latency_ms + 1e-9:
                return False
            if target.cost_units is not None and option.cost_per_request > target.cost_units + 1e-12:
                return False
        return set(self.assignments) == set(problem.loads)

    def describe(self) -> str:
        lines = [f"Deployment ({self.solver}): {self.total_instances} instances, "
                 f"${self.total_hourly_cost:.2f}/hour"]
        for handler, option in sorted(self.assignments.items()):
            lines.append(
                f"  {handler}: {option.instances} x {option.machine.name} "
                f"(latency {option.latency_ms:.1f}ms, "
                f"${option.cost_per_request:.5f}/req)"
            )
        return "\n".join(lines)


def solve_deployment(problem: DeploymentProblem) -> DeploymentSolution:
    """Solve the assignment program exactly (branch and bound)."""
    from repro.placement.branch_and_bound import branch_and_bound_solve

    return branch_and_bound_solve(problem)
