"""Adaptive reoptimization: re-solving the deployment as the workload drifts.

§9.2's "adaptive optimization" challenge: the generated implementation must
change over time as request rates move by orders of magnitude.  The
autoscaler watches observed per-handler request rates, and when any
handler's rate drifts beyond a tolerance band from the rate the current
solution was sized for, it rebuilds the deployment problem with the new
rates and re-solves.  It keeps a history of re-plans so experiments can
report how allocation tracked the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.placement.cost_models import HandlerLoadModel
from repro.placement.ilp import DeploymentProblem, DeploymentSolution, solve_deployment


@dataclass
class ScalingEvent:
    """One re-plan: which rates triggered it and what the new solution was."""

    observed_rates: dict[str, float]
    solution: DeploymentSolution
    reason: str


class Autoscaler:
    """Re-solves a deployment problem when observed load drifts."""

    def __init__(self, problem: DeploymentProblem, drift_tolerance: float = 0.5) -> None:
        if not 0.0 < drift_tolerance:
            raise ValueError("drift_tolerance must be positive")
        self.problem = problem
        self.drift_tolerance = drift_tolerance
        self.current_solution = solve_deployment(problem)
        self.sized_for = {name: load.request_rate_rps for name, load in problem.loads.items()}
        self.events: list[ScalingEvent] = [
            ScalingEvent(dict(self.sized_for), self.current_solution, "initial deployment")
        ]

    # -- observation ---------------------------------------------------------------

    def observe(self, observed_rates: dict[str, float]) -> Optional[DeploymentSolution]:
        """Report observed request rates; returns a new solution if re-planned."""
        drifted = []
        for handler, rate in observed_rates.items():
            sized = self.sized_for.get(handler)
            if sized is None:
                continue
            if sized == 0:
                if rate > 0:
                    drifted.append(handler)
                continue
            change = abs(rate - sized) / sized
            if change > self.drift_tolerance:
                drifted.append(handler)
        if not drifted:
            return None
        return self._replan(observed_rates, f"rate drift on {sorted(drifted)}")

    def _replan(self, observed_rates: dict[str, float], reason: str) -> DeploymentSolution:
        new_loads = {}
        for handler, load in self.problem.loads.items():
            new_rate = observed_rates.get(handler, load.request_rate_rps)
            new_loads[handler] = HandlerLoadModel(
                handler=handler,
                request_rate_rps=max(new_rate, 0.001),
                base_service_ms=load.base_service_ms,
                requires_processor=load.requires_processor,
            )
        self.problem = DeploymentProblem(
            loads=new_loads,
            targets=self.problem.targets,
            catalog=self.problem.catalog,
            objective=self.problem.objective,
        )
        self.current_solution = solve_deployment(self.problem)
        self.sized_for = {name: load.request_rate_rps for name, load in new_loads.items()}
        self.events.append(ScalingEvent(dict(self.sized_for), self.current_solution, reason))
        return self.current_solution

    # -- reporting -----------------------------------------------------------------------

    @property
    def replan_count(self) -> int:
        return len(self.events) - 1

    def instance_history(self) -> list[int]:
        return [event.solution.total_instances for event in self.events]
