"""Tests for the target-facet deployment optimizer (E5's correctness half)."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import NotDeployableError
from repro.core.facets import TargetSpec
from repro.placement import (
    DeploymentProblem,
    HandlerLoadModel,
    MachineType,
    PerformanceModel,
    greedy_solve,
    solve_deployment,
)
from repro.placement.machines import DEFAULT_CATALOG


def covid_like_problem(objective="machines", rate_scale=1.0):
    loads = {
        "add_person": HandlerLoadModel("add_person", 200.0 * rate_scale, 4.0),
        "add_contact": HandlerLoadModel("add_contact", 400.0 * rate_scale, 6.0),
        "trace": HandlerLoadModel("trace", 50.0 * rate_scale, 20.0),
        "likelihood": HandlerLoadModel("likelihood", 20.0 * rate_scale, 80.0,
                                       requires_processor="gpu"),
        "vaccinate": HandlerLoadModel("vaccinate", 10.0 * rate_scale, 10.0),
    }
    targets = {
        "add_person": TargetSpec(latency_ms=100.0, cost_units=0.001),
        "add_contact": TargetSpec(latency_ms=100.0, cost_units=0.001),
        "trace": TargetSpec(latency_ms=100.0, cost_units=0.01),
        "likelihood": TargetSpec(latency_ms=200.0, cost_units=0.1, processor="gpu"),
        "vaccinate": TargetSpec(latency_ms=100.0, cost_units=0.01),
    }
    return DeploymentProblem(loads=loads, targets=targets, objective=objective)


class TestPerformanceModel:
    def test_latency_decreases_with_more_instances(self):
        model = PerformanceModel()
        load = HandlerLoadModel("h", 300.0, 10.0)
        machine = DEFAULT_CATALOG[0]
        lat_few = model.expected_latency_ms(load, machine, 4)
        lat_many = model.expected_latency_ms(load, machine, 8)
        assert lat_many < lat_few

    def test_saturation_is_infeasible(self):
        model = PerformanceModel()
        load = HandlerLoadModel("h", 300.0, 10.0)
        machine = DEFAULT_CATALOG[0]  # 100 rps capacity
        assert model.expected_latency_ms(load, machine, 2) == float("inf")

    def test_min_feasible_instances_respects_latency(self):
        model = PerformanceModel()
        load = HandlerLoadModel("h", 250.0, 10.0)
        machine = DEFAULT_CATALOG[0]
        target = TargetSpec(latency_ms=15.0, cost_units=None)
        instances = model.min_feasible_instances(load, target, machine)
        assert instances is not None
        assert model.expected_latency_ms(load, machine, instances) <= 15.0

    def test_gpu_requirement_excludes_cpu_machines(self):
        model = PerformanceModel()
        load = HandlerLoadModel("ml", 10.0, 50.0, requires_processor="gpu")
        target = TargetSpec(latency_ms=500.0, cost_units=None, processor="gpu")
        assert model.min_feasible_instances(load, target, DEFAULT_CATALOG[0]) is None
        assert model.min_feasible_instances(load, target, DEFAULT_CATALOG[2]) is not None

    def test_cost_per_request_amortises_hourly_price(self):
        model = PerformanceModel()
        load = HandlerLoadModel("h", 100.0, 5.0)
        machine = MachineType("m", hourly_cost=0.36, capacity_rps=200.0)
        # 0.36/hour at 100 rps = 360k requests/hour -> $0.000001/request
        assert model.cost_per_request(load, machine, 1) == pytest.approx(1e-6)


class TestSolvers:
    def test_milp_solution_satisfies_all_constraints(self):
        problem = covid_like_problem()
        solution = solve_deployment(problem)
        assert solution.satisfies(problem)
        assert solution.assignments["likelihood"].machine.processor == "gpu"

    @pytest.mark.parametrize("objective", ["machines", "cost"])
    @pytest.mark.parametrize("rate_scale", [0.5, 1.0, 4.0])
    def test_solution_is_the_minimum_over_every_assignment(self, objective,
                                                           rate_scale):
        """From-scratch oracle: the whole cross product of the options."""
        problem = covid_like_problem(objective, rate_scale)

        def value(options):
            if objective == "cost":
                return sum(option.hourly_cost for option in options)
            return sum(option.instances for option in options)

        oracle = min(value(choice) for choice in
                     itertools.product(*problem.options().values()))
        solution = solve_deployment(problem)
        assert solution.satisfies(problem)
        assert value(solution.assignments.values()) == pytest.approx(oracle)

    def test_cost_objective_never_costs_more_than_machines_objective(self):
        machines_solution = solve_deployment(covid_like_problem(objective="machines"))
        cost_solution = solve_deployment(covid_like_problem(objective="cost"))
        assert cost_solution.total_hourly_cost <= machines_solution.total_hourly_cost + 1e-9

    def test_optimizer_beats_or_matches_greedy_on_cost(self):
        problem = covid_like_problem(objective="cost")
        optimal = solve_deployment(problem)
        greedy = greedy_solve(problem)
        assert optimal.total_hourly_cost <= greedy.total_hourly_cost + 1e-9

    def test_infeasible_targets_raise(self):
        problem = covid_like_problem()
        problem.targets["trace"] = TargetSpec(latency_ms=0.001, cost_units=0.000001)
        with pytest.raises(NotDeployableError):
            solve_deployment(problem)

    def test_describe_lists_every_handler(self):
        solution = solve_deployment(covid_like_problem())
        text = solution.describe()
        for handler in covid_like_problem().loads:
            assert handler in text


@st.composite
def sizing_problems(draw):
    """Random loads, targets and catalogues: machine prices come from a
    three-value set, so equal-priced machines are common; a handler's rate
    may be zero; handlers are declared out of sorted order."""
    prices = st.sampled_from([0.05, 0.2, 0.9])
    catalog = [
        MachineType(f"m{index}", hourly_cost=draw(prices),
                    speed_factor=draw(st.sampled_from([1.0, 2.5, 6.0])),
                    capacity_rps=draw(st.sampled_from([50.0, 100.0, 400.0])),
                    processor=draw(st.sampled_from(["cpu", "cpu", "gpu"])),
                    max_instances=draw(st.integers(1, 8)))
        for index in range(draw(st.integers(1, 4)))
    ]
    loads, targets = {}, {}
    for handler in ("trace", "add", "likelihood")[:draw(st.integers(1, 3))]:
        loads[handler] = HandlerLoadModel(
            handler, draw(st.sampled_from([0.0, 10.0, 90.0, 300.0])),
            draw(st.sampled_from([2.0, 10.0, 40.0])),
            requires_processor=draw(st.sampled_from(["cpu", "cpu", "cpu", "gpu"])))
        targets[handler] = TargetSpec(
            latency_ms=draw(st.sampled_from([None, 5.0, 20.0, 100.0, 500.0])),
            cost_units=draw(st.sampled_from([None, None, 1e-6, 1e-4, 0.01])),
            max_machines=draw(st.sampled_from([None, None, 1, 3])))
    return DeploymentProblem(loads=loads, targets=targets, catalog=catalog)


@settings(max_examples=300, deadline=None)
@given(sizing_problems(), st.sampled_from(["machines", "cost"]))
def test_solution_is_the_first_cheapest_option_per_handler(problem, objective):
    """No constraint spans two handlers, so the cross-product minimum is
    each handler's cheapest option (ties: first in catalogue order), and
    the program is infeasible exactly when some handler has no option —
    re-solving under the other objective can never rescue it."""
    problem.objective = objective
    options = problem.options()

    def key(option):
        return option.hourly_cost if objective == "cost" else option.instances

    if any(not handler_options for handler_options in options.values()):
        for either in ("machines", "cost"):
            problem.objective = either
            with pytest.raises(NotDeployableError):
                solve_deployment(problem)
        return
    solution = solve_deployment(problem)
    assert list(solution.assignments) == sorted(options)
    oracle = min(sum(key(option) for option in choice)
                 for choice in itertools.product(*options.values()))
    assert sum(key(solution.assignments[handler]) for handler in options) == oracle
    for handler, handler_options in options.items():
        cheapest = min(key(option) for option in handler_options)
        first = next(option for option in handler_options if key(option) == cheapest)
        assert solution.assignments[handler] == first


def test_src_imports_nothing_outside_the_standard_library():
    """``numpy``/``scipy`` were never declared and CI installs neither; the
    exact solver needs neither, and the import cost every compile 0.5 s."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    script = ("import sys; import repro.compiler, repro.storage, repro.chaos; "
              "print([m for m in ('numpy', 'scipy') if m in sys.modules])")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "[]"
