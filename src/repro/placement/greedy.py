"""A greedy allocation baseline for the E5 ablation.

Real deployments are often sized by hand with a simple rule: give every
handler the fastest machine that meets its latency target and enough
instances to stay under ~70% utilisation.  The greedy allocator encodes that
rule so benchmarks can show how much the optimizer saves relative to it.
"""

from __future__ import annotations

import math

from repro.core.errors import NotDeployableError
from repro.core.facets import TargetSpec
from repro.placement.ilp import (
    PERFORMANCE_MODEL,
    ConfigurationOption,
    DeploymentProblem,
    DeploymentSolution,
)


def greedy_solve(problem: DeploymentProblem) -> DeploymentSolution:
    """Pick, per handler, the fastest feasible machine at ~70% utilisation."""
    model = PERFORMANCE_MODEL
    assignments: dict[str, ConfigurationOption] = {}
    for handler, load in problem.loads.items():
        target = problem.targets.get(handler, TargetSpec())
        candidates = sorted(problem.catalog, key=lambda m: -m.speed_factor)
        chosen = None
        for machine in candidates:
            if not model.satisfies_processor(load, target, machine):
                continue
            instances = max(
                1, math.ceil(load.request_rate_rps / (machine.capacity_rps * 0.7))
            )
            instances = min(instances, machine.max_instances)
            latency = model.expected_latency_ms(load, machine, instances)
            if target.latency_ms is not None and latency > target.latency_ms:
                continue
            chosen = ConfigurationOption(
                handler=handler,
                machine=machine,
                instances=instances,
                latency_ms=latency,
                cost_per_request=model.cost_per_request(load, machine, instances),
                hourly_cost=model.hourly_cost(machine, instances),
            )
            break
        if chosen is None:
            raise NotDeployableError(
                f"greedy allocation found no machine meeting the latency target of {handler!r}"
            )
        assignments[handler] = chosen
    return DeploymentSolution(assignments=assignments, solver="greedy")
