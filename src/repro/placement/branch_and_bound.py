"""A pure-Python branch-and-bound solver for the deployment assignment problem.

Exact on this problem class (choose one configuration per handler
minimising a separable objective — no MILP library needed) and doubles
as the "formal methods-based algorithms can generate another satisfiable
solution" hook of §9.2: ``enumerate_solutions`` yields solutions in
increasing objective order, which the compiler's backtracking uses when an
earlier choice turns out infeasible downstream.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import NotDeployableError
from repro.placement.ilp import (
    ConfigurationOption,
    DeploymentProblem,
    DeploymentSolution,
)


def _objective(option: ConfigurationOption, objective: str) -> float:
    return option.hourly_cost if objective == "cost" else float(option.instances)


def branch_and_bound_solve(problem: DeploymentProblem) -> DeploymentSolution:
    """Find the minimum-objective assignment by depth-first branch and bound."""
    options = problem.options()
    infeasible = [handler for handler, opts in options.items() if not opts]
    if infeasible:
        raise NotDeployableError(
            f"no machine configuration satisfies the targets of handlers {sorted(infeasible)}; "
            "relax the latency/cost targets or extend the machine catalogue"
        )

    handlers = sorted(options)
    # Sort each handler's options cheapest-first so the first complete solution
    # is a good incumbent and pruning is effective.
    sorted_options = {
        handler: sorted(options[handler], key=lambda o: _objective(o, problem.objective))
        for handler in handlers
    }
    # Lower bound on the remaining handlers' contribution.
    suffix_bound = [0.0] * (len(handlers) + 1)
    for index in range(len(handlers) - 1, -1, -1):
        cheapest = _objective(sorted_options[handlers[index]][0], problem.objective)
        suffix_bound[index] = suffix_bound[index + 1] + cheapest

    best_value = float("inf")
    best_assignment: dict[str, ConfigurationOption] = {}

    def descend(index: int, current_value: float,
                assignment: dict[str, ConfigurationOption]) -> None:
        nonlocal best_value, best_assignment
        if current_value + suffix_bound[index] >= best_value:
            return
        if index == len(handlers):
            best_value = current_value
            best_assignment = dict(assignment)
            return
        handler = handlers[index]
        for option in sorted_options[handler]:
            assignment[handler] = option
            descend(index + 1, current_value + _objective(option, problem.objective), assignment)
            del assignment[handler]

    descend(0, 0.0, {})
    return DeploymentSolution(assignments=best_assignment, solver="branch-and-bound")


def enumerate_solutions(problem: DeploymentProblem, limit: int = 10) -> Iterator[DeploymentSolution]:
    """Yield feasible assignments in non-decreasing objective order.

    A simple best-first enumeration over the cross product; ``limit`` bounds
    the number of yielded solutions.  Used by the compiler's backtracking
    search when a cheaper deployment turns out to be unusable for reasons the
    ILP cannot see (e.g. a later facet conflict).
    """
    import heapq

    options = problem.options()
    handlers = sorted(options)
    if any(not options[handler] for handler in handlers):
        return
    sorted_options = {
        handler: sorted(options[handler], key=lambda o: _objective(o, problem.objective))
        for handler in handlers
    }

    def value_of(indices: tuple[int, ...]) -> float:
        return sum(
            _objective(sorted_options[handler][index], problem.objective)
            for handler, index in zip(handlers, indices)
        )

    start = tuple(0 for _ in handlers)
    heap = [(value_of(start), start)]
    seen = {start}
    yielded = 0
    while heap and yielded < limit:
        value, indices = heapq.heappop(heap)
        assignment = {
            handler: sorted_options[handler][index]
            for handler, index in zip(handlers, indices)
        }
        yield DeploymentSolution(assignments=assignment, solver="enumeration")
        yielded += 1
        for position in range(len(handlers)):
            bumped = list(indices)
            bumped[position] += 1
            if bumped[position] >= len(sorted_options[handlers[position]]):
                continue
            key = tuple(bumped)
            if key not in seen:
                seen.add(key)
                heapq.heappush(heap, (value_of(key), key))
