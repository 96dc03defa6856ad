"""The deployment integer program and its exact solver.

Following §9.1, the decision is which machine configuration serves each
handler and with how many instances.  The nonlinear queueing model is
handled by precomputing, per (handler, machine type), the minimum feasible
instance count; the remaining choice — exactly one machine type per handler,
minimising total instances or total hourly cost — couples no two handlers:
the objective is a sum of one term per handler and every constraint names
one handler, so the exact optimum is the cheapest option per handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Literal

from repro.core.errors import NotDeployableError
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


#: The one performance model every sizing decision shares.
PERFORMANCE_MODEL = PerformanceModel()


@dataclass
class DeploymentProblem:
    """The full optimization input: loads, targets, catalogue, objective."""

    loads: dict[str, HandlerLoadModel]
    targets: dict[str, TargetSpec]
    catalog: list[MachineType] = field(default_factory=lambda: list(DEFAULT_CATALOG))
    objective: Literal["machines", "cost"] = "machines"

    def options(self) -> dict[str, list[ConfigurationOption]]:
        """Enumerate feasible configurations per handler, in catalogue order."""
        model = PERFORMANCE_MODEL
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
    solver: str = "exact"

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
    """Solve the assignment program exactly: the cheapest option per handler.

    Ties keep the first option in catalogue order; the assignment is keyed
    in sorted handler order.
    """
    options = problem.options()
    infeasible = [handler for handler, opts in options.items() if not opts]
    if infeasible:
        raise NotDeployableError(
            f"no machine configuration satisfies the targets of handlers {sorted(infeasible)}; "
            "relax the latency/cost targets or extend the machine catalogue"
        )
    objective = attrgetter("hourly_cost" if problem.objective == "cost" else "instances")
    return DeploymentSolution(
        {handler: min(options[handler], key=objective) for handler in sorted(options)})
