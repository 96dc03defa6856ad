"""Adaptive reoptimization: re-solving the deployment as the workload drifts (§9.2).

The target facet's optimizer sizes each handler for a predicted request
rate.  §9.2's "adaptive optimization" challenge is that the generated
implementation must change over time as those rates move by orders of
magnitude.  The autoscaler below watches observed per-handler rates, and
when any handler's rate drifts beyond a tolerance band from the rate the
current solution was sized for, it rebuilds the deployment problem with the
new rates and re-solves it with the same optimizer Hydrolysis uses.

The script drives the COVID tracker's handlers through a 100x swing
(baseline, a 10x surge, a 0.1x quiet spell) and prints how the allocation
tracked it.

Run with:  python examples/autoscaling.py
"""

from __future__ import annotations

from typing import Optional

from repro.core.facets import TargetSpec
from repro.placement import (
    DeploymentProblem,
    DeploymentSolution,
    HandlerLoadModel,
    solve_deployment,
)


class Autoscaler:
    """Re-solves a deployment problem when observed load drifts."""

    def __init__(self, problem: DeploymentProblem, drift_tolerance: float = 0.5) -> None:
        if not 0.0 < drift_tolerance:
            raise ValueError("drift_tolerance must be positive")
        self.problem = problem
        self.drift_tolerance = drift_tolerance
        self.current_solution = solve_deployment(problem)
        self.sized_for = {name: load.request_rate_rps for name, load in problem.loads.items()}
        #: One reason per re-plan, in order.
        self.replans: list[str] = []

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
            if abs(rate - sized) / sized > self.drift_tolerance:
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
        self.replans.append(reason)
        return self.current_solution


def covid_problem() -> DeploymentProblem:
    """The COVID tracker's handlers at their baseline request rates."""
    loads = {
        "add_person": HandlerLoadModel("add_person", 200.0, 4.0),
        "add_contact": HandlerLoadModel("add_contact", 400.0, 6.0),
        "trace": HandlerLoadModel("trace", 50.0, 20.0),
        "diagnosed": HandlerLoadModel("diagnosed", 20.0, 25.0),
        "likelihood": HandlerLoadModel("likelihood", 20.0, 80.0, requires_processor="gpu"),
        "vaccinate": HandlerLoadModel("vaccinate", 10.0, 10.0),
    }
    targets = {
        "add_person": TargetSpec(latency_ms=100.0, cost_units=0.001),
        "add_contact": TargetSpec(latency_ms=100.0, cost_units=0.001),
        "trace": TargetSpec(latency_ms=100.0, cost_units=0.01),
        "diagnosed": TargetSpec(latency_ms=100.0, cost_units=0.01),
        "likelihood": TargetSpec(latency_ms=200.0, cost_units=0.1, processor="gpu"),
        "vaccinate": TargetSpec(latency_ms=100.0, cost_units=0.01),
    }
    return DeploymentProblem(loads=loads, targets=targets, objective="cost")


def main() -> None:
    baseline = {name: load.request_rate_rps for name, load in covid_problem().loads.items()}
    scaler = Autoscaler(covid_problem(), drift_tolerance=0.5)
    low = scaler.current_solution.total_instances
    high = scaler.observe({name: rate * 10 for name, rate in baseline.items()}).total_instances
    back_down = scaler.observe({name: rate * 0.1 for name, rate in baseline.items()}).total_instances

    print("autoscaling across a 100x workload swing:")
    print(f"  {'phase':<12} | total instances")
    for phase, instances in (("baseline", low), ("10x surge", high), ("0.1x quiet", back_down)):
        print(f"  {phase:<12} | {instances}")
    print("re-plans:")
    for reason in scaler.replans:
        print(f"  {reason}")

    assert high > low >= back_down
    assert len(scaler.replans) == 2


if __name__ == "__main__":
    main()
