"""The availability facet: replication and client proxies (§6).

The facet's contract is "each endpoint stays available through *f*
independent failures".  The compiler realises it with replicas behind a
proxy, the two mechanisms here, and
:class:`~repro.compiler.deployment.HydroDeployment` builds both:

* **Replicated execution** — :mod:`repro.availability.replication` places
  f+1 replicas across distinct failure domains and keeps them convergent by
  shipping (monotone) operations to every replica.
* **Client proxy** — :mod:`repro.availability.proxy` load-balances requests
  over live replicas, retries on failure, and is the component that turns
  redundancy into observed availability.
"""

from repro.availability.proxy import ReplicaProxy
from repro.availability.replication import ReplicaNode

__all__ = [
    "ReplicaProxy",
    "ReplicaNode",
]
