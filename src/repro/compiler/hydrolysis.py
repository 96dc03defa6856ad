"""The Hydrolysis facade: analyze, plan, size, deploy.

``compile`` runs the full pipeline over a program:

1. monotonicity / CALM analysis (program semantics + consistency facets),
   which decides each endpoint's coordination mechanism;
2. replica placement against the availability facet and a cluster topology,
   recording each placed node's availability zone for the deployment;
3. machine sizing against the target facet: the cheapest option per
   handler under the chosen objective; a handler no configuration can serve
   fails the compile with a :class:`~repro.core.errors.NotDeployableError`
   naming it, instead of silently producing a broken plan.

``deploy`` instantiates a compiled plan on a simulated cluster.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.cluster.domains import FailureDomain, Topology
from repro.cluster.network import Network, NetworkConfig
from repro.cluster.simulator import Simulator
from repro.compiler.deployment import HydroDeployment
from repro.compiler.plan import DeploymentPlan, EndpointPlan
from repro.core.monotonicity import analyze_program
from repro.core.program import HydroProgram
from repro.placement.cost_models import HandlerLoadModel
from repro.placement.ilp import DeploymentProblem, solve_deployment
from repro.placement.replicas import plan_placements


class Hydrolysis:
    """The compiler driver."""

    # -- compilation -------------------------------------------------------------------

    def compile(
        self,
        program: HydroProgram,
        topology: Optional[Topology] = None,
        candidate_nodes: Iterable[Hashable] = (),
        loads: Optional[dict[str, HandlerLoadModel]] = None,
        objective: str = "cost",
    ) -> DeploymentPlan:
        """Compile a program into a deployment plan."""
        program.validate()
        report = analyze_program(program)

        placements = {}
        candidates = list(candidate_nodes)
        if topology is not None and candidates:
            placements = plan_placements(program, topology, candidates)

        machine_configurations = {}
        if loads:
            targets = {name: program.target_for(name) for name in loads}
            problem = DeploymentProblem(loads=loads, targets=targets, objective=objective)
            machine_configurations = solve_deployment(problem).assignments

        plan = DeploymentPlan(program_name=program.name)
        for name in program.handlers:
            replicas = list(placements[name].replicas) if name in placements else []
            plan.endpoints[name] = EndpointPlan(
                handler=name,
                analysis=report.handlers[name],
                availability=program.availability_for(name),
                replicas=replicas,
                machine_configuration=machine_configurations.get(name),
            )
            for node_id in replicas:
                plan.zones[node_id] = topology.domain_of(
                    node_id, FailureDomain.AVAILABILITY_ZONE)
        return plan

    # -- deployment --------------------------------------------------------------------

    def deploy(
        self,
        program: HydroProgram,
        plan: DeploymentPlan,
        simulator: Optional[Simulator] = None,
        network: Optional[Network] = None,
    ) -> HydroDeployment:
        """Instantiate a compiled plan on a (simulated) cluster."""
        simulator = simulator or Simulator(seed=42)
        network = network or Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
        return HydroDeployment(program, plan, simulator, network)
