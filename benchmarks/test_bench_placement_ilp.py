"""E5 — the target facet's deployment ILP (§9.1) vs greedy allocation.

Regenerates the integer-programming formulation of §9.1 on the COVID
application's handlers: the optimizer finds allocations that satisfy every
latency/cost constraint at lower cost than the greedy sizing rule.
``examples/autoscaling.py`` re-solves the same handlers as the workload
shifts by orders of magnitude.
"""

import pytest

from conftest import print_rows
from repro.core.facets import TargetSpec
from repro.placement import (
    DeploymentProblem,
    HandlerLoadModel,
    greedy_solve,
    solve_deployment,
)


def problem(rate_scale: float = 1.0, objective: str = "cost") -> DeploymentProblem:
    loads = {
        "add_person": HandlerLoadModel("add_person", 200.0 * rate_scale, 4.0),
        "add_contact": HandlerLoadModel("add_contact", 400.0 * rate_scale, 6.0),
        "trace": HandlerLoadModel("trace", 50.0 * rate_scale, 20.0),
        "diagnosed": HandlerLoadModel("diagnosed", 20.0 * rate_scale, 25.0),
        "likelihood": HandlerLoadModel("likelihood", 20.0 * rate_scale, 80.0,
                                       requires_processor="gpu"),
        "vaccinate": HandlerLoadModel("vaccinate", 10.0 * rate_scale, 10.0),
    }
    targets = {
        "add_person": TargetSpec(latency_ms=100.0, cost_units=0.001),
        "add_contact": TargetSpec(latency_ms=100.0, cost_units=0.001),
        "trace": TargetSpec(latency_ms=100.0, cost_units=0.01),
        "diagnosed": TargetSpec(latency_ms=100.0, cost_units=0.01),
        "likelihood": TargetSpec(latency_ms=200.0, cost_units=0.1, processor="gpu"),
        "vaccinate": TargetSpec(latency_ms=100.0, cost_units=0.01),
    }
    return DeploymentProblem(loads=loads, targets=targets, objective=objective)


@pytest.mark.parametrize("rate_scale", [0.5, 1.0, 4.0])
def test_ilp_vs_greedy(benchmark, rate_scale):
    ilp_solution = benchmark(solve_deployment, problem(rate_scale))
    greedy_solution = greedy_solve(problem(rate_scale))
    assert ilp_solution.satisfies(problem(rate_scale))
    print_rows(
        f"E5: deployment sizing at {rate_scale}x the baseline request rates",
        ["allocator", "instances", "hourly cost ($)", "all constraints met"],
        [
            ["ILP (Hydrolysis)", ilp_solution.total_instances,
             f"{ilp_solution.total_hourly_cost:.3f}", ilp_solution.satisfies(problem(rate_scale))],
            ["greedy (fastest machine @70% util)", greedy_solution.total_instances,
             f"{greedy_solution.total_hourly_cost:.3f}", True],
        ],
    )
    assert ilp_solution.total_hourly_cost <= greedy_solution.total_hourly_cost + 1e-9
