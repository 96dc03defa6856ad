"""The target facet's deployment optimizer (§9).

Implements the integer-programming formulation of §9.1: given per-handler
latency and cost targets, a catalogue of machine types with performance and
price models, and a predicted workload, choose how many instances of each
machine type to allocate per handler so that every latency and cost
constraint is met while minimising total machine count (or total cost).

No constraint or objective term spans two handlers, so the program is
solved exactly by taking the cheapest option per handler; a greedy
baseline serves the E5 ablation.
"""

from repro.placement.geo import (
    GEO_AZS,
    geo_delay_matrix,
    locality_aware_domain,
    naive_domain,
    region_of,
)
from repro.placement.machines import MachineType, DEFAULT_CATALOG
from repro.placement.cost_models import HandlerLoadModel, PerformanceModel
from repro.placement.ilp import DeploymentProblem, DeploymentSolution, solve_deployment
from repro.placement.greedy import greedy_solve
from repro.placement.replicas import placement_summary, plan_placements, ring_spread

__all__ = [
    "GEO_AZS",
    "geo_delay_matrix",
    "locality_aware_domain",
    "naive_domain",
    "region_of",
    "MachineType",
    "DEFAULT_CATALOG",
    "PerformanceModel",
    "HandlerLoadModel",
    "DeploymentProblem",
    "DeploymentSolution",
    "solve_deployment",
    "greedy_solve",
    "plan_placements",
    "ring_spread",
    "placement_summary",
]
