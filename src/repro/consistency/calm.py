"""CALM-driven coordination decisions.

Given a program's monotonicity report and consistency facet, decide — per
endpoint — which of the two mechanisms a deployment runs enforces it:

1. *no enforcement* when the analysis proves the handler coordination-free
   (CALM): the replica proxy serves it from any replica; or
2. *a consensus log* otherwise: the handler's invocations are totally
   ordered and fed to every replica in slot order (state machine
   replication).

The paper's §7.2 names a third approach, sealing; it runs client-side in
:mod:`repro.consistency.sealing` and is no compiler decision.  The decision
object also carries the reasons, so the compiler's explain output can show
developers why an endpoint pays for coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.facets import ConsistencyLevel
from repro.core.monotonicity import MonotonicityReport, analyze_program
from repro.core.program import HydroProgram


class CoordinationMechanism(str, Enum):
    """How an endpoint's consistency spec is enforced."""

    NONE = "none"                      # coordination-free (CALM)
    CONSENSUS_LOG = "consensus-log"    # total order broadcast (state machine replication)


@dataclass(frozen=True)
class CoordinationDecision:
    """The compiler's choice for one endpoint."""

    handler: str
    mechanism: CoordinationMechanism
    reasons: tuple[str, ...] = ()

    @property
    def coordination_free(self) -> bool:
        return self.mechanism is CoordinationMechanism.NONE


def decide_coordination(
    program: HydroProgram,
    report: MonotonicityReport | None = None,
) -> dict[str, CoordinationDecision]:
    """Choose a coordination mechanism for every handler."""
    if report is None:
        report = analyze_program(program)
    decisions: dict[str, CoordinationDecision] = {}
    for name, analysis in report.handlers.items():
        spec = program.consistency_for(name)
        reasons = list(analysis.reasons)
        if analysis.coordination_free:
            mechanism = CoordinationMechanism.NONE
            if not reasons:
                reasons = ["monotone handler: CALM guarantees coordination-free determinism"]
        else:
            mechanism = CoordinationMechanism.CONSENSUS_LOG
            if spec.level in (ConsistencyLevel.SERIALIZABLE, ConsistencyLevel.LINEARIZABLE) or spec.invariants:
                reasons.append("total order required across replicas")
            else:
                reasons.append("non-monotone effects are ordered across replicas")
        decisions[name] = CoordinationDecision(name, mechanism, tuple(reasons))
    return decisions
