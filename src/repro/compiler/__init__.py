"""Hydrolysis: the HydroLogic-to-Hydroflow-and-deployment compiler (§2.2, §8, §9).

The compiler has three stages, mirroring the paper's pipeline:

1. **Lowering** (:mod:`repro.compiler.lowering`) — translate HydroLogic
   query plans into single-node Hydroflow operator graphs, the way SQL is
   lowered to relational algebra.  Recursive (monotone) queries lower to
   cyclic graphs evaluated to fixpoint.
2. **Optimization** (:mod:`repro.compiler.optimizer`) — rewrite the plan:
   predicate pushdown, projection pruning and the naive-to-semi-naive
   rewrite of recursive queries (the E10 ablation).
3. **Deployment planning** (:mod:`repro.compiler.plan` and
   :mod:`repro.compiler.deployment`) — combine the monotonicity/CALM report,
   the consistency and availability facets, and the target-facet optimizer
   (the cheapest machine configuration per handler) into a
   :class:`~repro.compiler.plan.DeploymentPlan`, then instantiate it on the
   simulated cluster as a :class:`~repro.compiler.deployment.HydroDeployment`
   (replica nodes, client proxy, and a consensus log for the endpoints that
   need coordination).

:class:`~repro.compiler.hydrolysis.Hydrolysis` is the facade tying the
stages together.
"""

from repro.compiler.plan import DeploymentPlan, EndpointPlan
from repro.compiler.lowering import QueryPlan, lower_query_plan, lower_transitive_closure
from repro.compiler.optimizer import OptimizationReport, optimize_plan
from repro.compiler.deployment import HydroDeployment
from repro.compiler.hydrolysis import Hydrolysis

__all__ = [
    "DeploymentPlan",
    "EndpointPlan",
    "QueryPlan",
    "lower_query_plan",
    "lower_transitive_closure",
    "OptimizationReport",
    "optimize_plan",
    "HydroDeployment",
    "Hydrolysis",
]
