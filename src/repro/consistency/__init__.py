"""The consistency facet: specs, analysis and enforcement mechanisms (§7).

The paper's consistency story has three parts, each with a module here:

* **Analysis** — :mod:`repro.core.monotonicity` gives every endpoint one
  verdict whose :class:`CoordinationMechanism` is no enforcement or a
  consensus log — the two mechanisms a compiled deployment runs.
* **Mechanisms** — :mod:`repro.consistency.paxos` implements the
  "heavyweight" consensus log over the simulated cluster;
  :mod:`repro.consistency.causal` implements coordination-free causal
  delivery with vector clocks.
* **Specs** — the level/invariant data types live in
  :mod:`repro.core.facets` and are re-exported here for convenience, as
  is :class:`CoordinationMechanism`.
"""

from repro.core.facets import ConsistencyLevel, ConsistencySpec, Invariant
from repro.core.monotonicity import CoordinationMechanism
from repro.consistency.causal import CausalBroadcast, CausalMessage
from repro.consistency.paxos import ConsensusLog, PaxosReplica

__all__ = [
    "ConsistencyLevel",
    "ConsistencySpec",
    "Invariant",
    "CoordinationMechanism",
    "CausalBroadcast",
    "CausalMessage",
    "ConsensusLog",
    "PaxosReplica",
]
