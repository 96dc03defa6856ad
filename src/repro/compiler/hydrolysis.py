"""The Hydrolysis facade: analyze, plan, size, deploy — with backtracking.

``compile`` runs the full pipeline over a program:

1. monotonicity / CALM analysis (program semantics + consistency facets);
2. coordination decisions per endpoint;
3. replica placement against the availability facet and a cluster topology;
4. machine sizing against the target facet via the deployment optimizer,
   with a backtracking fallback (§9.2): if the cost-minimal formulation is
   infeasible, retry minimising machines, and if that also fails, report
   which targets to relax instead of silently producing a broken plan.

``deploy`` instantiates a compiled plan on a simulated cluster.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.cluster.domains import Topology
from repro.cluster.network import Network, NetworkConfig
from repro.cluster.simulator import Simulator
from repro.compiler.deployment import HydroDeployment
from repro.compiler.plan import DeploymentPlan, EndpointPlan
from repro.consistency.calm import decide_coordination
from repro.core.errors import NotDeployableError
from repro.core.monotonicity import analyze_program
from repro.core.program import HydroProgram
from repro.placement.cost_models import HandlerLoadModel
from repro.placement.ilp import DeploymentProblem, solve_deployment
from repro.placement.machines import DEFAULT_CATALOG, MachineType
from repro.placement.replicas import plan_placements


class Hydrolysis:
    """The compiler driver."""

    def __init__(self, catalog: Optional[list[MachineType]] = None) -> None:
        self.catalog = list(catalog) if catalog is not None else list(DEFAULT_CATALOG)

    # -- compilation -------------------------------------------------------------------

    def compile(
        self,
        program: HydroProgram,
        topology: Optional[Topology] = None,
        candidate_nodes: Iterable[Hashable] = (),
        loads: Optional[dict[str, HandlerLoadModel]] = None,
        sealable_handlers: Iterable[str] = (),
        objective: str = "cost",
    ) -> DeploymentPlan:
        """Compile a program into a deployment plan."""
        program.validate()
        report = analyze_program(program)
        decisions = decide_coordination(program, report, frozenset(sealable_handlers))

        placements = {}
        candidates = list(candidate_nodes)
        if topology is not None and candidates:
            placements = plan_placements(program, topology, candidates)

        machine_configurations = {}
        notes: list[str] = []
        if loads:
            targets = {name: program.target_for(name) for name in loads}
            problem = DeploymentProblem(
                loads=loads, targets=targets, catalog=self.catalog, objective=objective
            )
            try:
                solution = solve_deployment(problem)
            except NotDeployableError:
                # Backtracking (§9.2): retry with the alternative objective before
                # reporting infeasibility to the developer.
                fallback_objective = "machines" if objective == "cost" else "cost"
                notes.append(
                    f"objective {objective!r} infeasible; backtracked to {fallback_objective!r}"
                )
                problem = DeploymentProblem(
                    loads=loads, targets=targets, catalog=self.catalog,
                    objective=fallback_objective,
                )
                solution = solve_deployment(problem)
            machine_configurations = solution.assignments

        plan = DeploymentPlan(program_name=program.name, notes=notes)
        for name in program.handlers:
            plan.endpoints[name] = EndpointPlan(
                handler=name,
                analysis=report.handlers[name],
                coordination=decisions[name],
                consistency=program.consistency_for(name),
                availability=program.availability_for(name),
                target=program.target_for(name),
                replicas=list(placements[name].replicas) if name in placements else [],
                machine_configuration=machine_configurations.get(name),
            )
        for table in program.datamodel.tables:
            plan.table_partitioning[table] = program.datamodel.partition_key(table)
        return plan

    # -- deployment --------------------------------------------------------------------

    def deploy(
        self,
        program: HydroProgram,
        plan: DeploymentPlan,
        simulator: Optional[Simulator] = None,
        network: Optional[Network] = None,
        gossip_interval: float = 10.0,
    ) -> HydroDeployment:
        """Instantiate a compiled plan on a (simulated) cluster."""
        simulator = simulator or Simulator(seed=42)
        network = network or Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
        return HydroDeployment(program, plan, simulator, network,
                               gossip_interval=gossip_interval)
