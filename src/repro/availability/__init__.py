"""The availability facet: replication, log shipping and client proxies (§6).

The facet's contract is "each endpoint stays available through *f*
independent failures".  The compiler realises it with the two standard
design patterns the paper names:

* **Replicated execution** — :mod:`repro.availability.replication` places
  f+1 replicas across distinct failure domains and keeps them convergent by
  shipping (monotone) operations to every replica.
* **Log shipping** — :mod:`repro.availability.log_shipping` replicates a
  mutation log to standby nodes that replay it on failover, trading latency
  for replica cost.
* **Client proxy** — :mod:`repro.availability.proxy` load-balances requests
  over live replicas, retries on failure, and is the component that turns
  redundancy into observed availability.
"""

from repro.availability.proxy import ReplicaProxy
from repro.availability.replication import ReplicaNode
from repro.availability.log_shipping import LogShippingPrimary, LogShippingStandby

__all__ = [
    "ReplicaProxy",
    "ReplicaNode",
    "LogShippingPrimary",
    "LogShippingStandby",
]
