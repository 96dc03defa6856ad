"""Hydrolysis: the HydroLogic-to-deployment compiler (§2.2, §9).

The compiler has one stage, **deployment planning**
(:mod:`repro.compiler.plan` and :mod:`repro.compiler.deployment`): it
combines the monotonicity/CALM report, the consistency and availability
facets, and the target-facet optimizer (the cheapest machine configuration
per handler) into a :class:`~repro.compiler.plan.DeploymentPlan`, then
instantiates it on the simulated cluster as a
:class:`~repro.compiler.deployment.HydroDeployment` (replica nodes, client
proxy, and a consensus log for the endpoints that need coordination).
A deployed program's queries run as the Python functions it declares;
``examples/query_lowering.py`` lowers one to a dataflow graph (E10).

:class:`~repro.compiler.hydrolysis.Hydrolysis` is the facade.
"""

from repro.compiler.plan import DeploymentPlan, EndpointPlan
from repro.compiler.deployment import HydroDeployment
from repro.compiler.hydrolysis import Hydrolysis

__all__ = [
    "DeploymentPlan",
    "EndpointPlan",
    "HydroDeployment",
    "Hydrolysis",
]
