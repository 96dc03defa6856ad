"""Monotonicity analysis: the CALM-side of HydroLogic's static checks.

The CALM theorem says a program has a coordination-free, deterministic
distributed execution iff it is monotone.  HydroLogic makes the analysis
tractable by construction: handlers declare their effects, queries declare
their monotonicity, and state cells are either lattice-typed (merges are
monotone) or plain (assignments are not).  The analysis classifies every
handler and query, explains *why* non-monotone ones are non-monotone, and
decides per endpoint which of the two mechanisms a deployment runs enforces
its consistency facet: none when the handler is coordination-free (CALM),
a consensus log otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.facets import ConsistencyLevel
from repro.core.handlers import EffectKind, Handler, Query
from repro.core.program import HydroProgram


class MonotonicityVerdict(str, Enum):
    """Classification of a handler or query."""

    MONOTONE = "monotone"
    NON_MONOTONE = "non-monotone"


class CoordinationMechanism(str, Enum):
    """How an endpoint's consistency spec is enforced."""

    NONE = "none"                      # coordination-free (CALM): the replica proxy
    CONSENSUS_LOG = "consensus-log"    # total order broadcast (state machine replication)


@dataclass(frozen=True)
class HandlerAnalysis:
    """The compiler's one coordination verdict for a handler, with its reasons.

    ``reasons`` explain both the monotonicity verdict and the mechanism, so
    the compiler's explain output can show why an endpoint pays for
    coordination.
    """

    handler: str
    verdict: MonotonicityVerdict
    reasons: tuple[str, ...] = ()
    coordination_free: bool = True

    @property
    def is_monotone(self) -> bool:
        return self.verdict is MonotonicityVerdict.MONOTONE

    @property
    def mechanism(self) -> CoordinationMechanism:
        if self.coordination_free:
            return CoordinationMechanism.NONE
        return CoordinationMechanism.CONSENSUS_LOG


@dataclass(frozen=True)
class QueryAnalysis:
    query: str
    verdict: MonotonicityVerdict
    reasons: tuple[str, ...] = ()


@dataclass
class MonotonicityReport:
    """The full program analysis used by the Hydrolysis compiler."""

    handlers: dict[str, HandlerAnalysis] = field(default_factory=dict)
    queries: dict[str, QueryAnalysis] = field(default_factory=dict)

    def coordinated_handlers(self) -> list[str]:
        return [name for name, a in self.handlers.items() if not a.coordination_free]

    def describe(self) -> str:
        lines = ["Monotonicity report:"]
        for name, analysis in sorted(self.handlers.items()):
            coordination = "coordination-free" if analysis.coordination_free else "COORDINATED"
            lines.append(f"  {name}: {analysis.verdict.value} ({coordination})")
            for reason in analysis.reasons:
                lines.append(f"      - {reason}")
        return "\n".join(lines)


def non_monotone_queries(program: HydroProgram) -> set[str]:
    """Every query that is non-monotone: declared so, or reading one that is.

    A least fixpoint over ``reads``, so the taint reaches through any depth
    of nesting and terminates on recursive queries and cycles.
    """
    tainted = {name for name, query in program.queries.items() if not query.monotone}
    while True:
        grown = {name for name, query in program.queries.items()
                 if tainted.intersection(query.reads)} - tainted
        if not grown:
            return tainted
        tainted |= grown


def analyze_query(query: Query, non_monotone: set[str]) -> QueryAnalysis:
    """A query is monotone iff it is declared monotone and reads no non-monotone query."""
    reasons: list[str] = []
    if not query.monotone:
        reasons.append("declared non-monotone")
    for read in query.reads:
        if read in non_monotone:
            reasons.append(f"depends on non-monotone query {read!r}")
    verdict = MonotonicityVerdict.MONOTONE if not reasons else MonotonicityVerdict.NON_MONOTONE
    return QueryAnalysis(query.name, verdict, tuple(reasons))


def analyze_handler(program: HydroProgram, handler: Handler,
                    non_monotone: set[str]) -> HandlerAnalysis:
    """Classify one handler and decide whether it can run coordination-free.

    A handler is monotone when every state effect is a lattice merge and
    every query it uses is monotone (``non_monotone`` names the queries
    that are not).  Sends do not affect monotonicity (they are asynchronous
    merges into mailboxes).  Coordination is needed when the handler is
    non-monotone *and* its consistency spec demands a coordinated level or
    carries invariants.
    """
    reasons: list[str] = []

    for spec in handler.effects:
        if spec.kind is EffectKind.ASSIGN:
            reasons.append(f"non-monotone assignment to {spec.target!r}")
        elif spec.kind is EffectKind.DELETE:
            reasons.append(f"non-monotone deletion from {spec.target!r}")
        elif spec.kind is EffectKind.MERGE:
            target = spec.target
            if program.datamodel.has_var(target) and not program.datamodel.var(target).is_lattice:
                reasons.append(
                    f"merge into plain (non-lattice) var {target!r} is not monotone"
                )

    for query_name in handler.queries:
        if query_name in non_monotone:
            reasons.append(f"uses non-monotone query {query_name!r}")

    verdict = MonotonicityVerdict.MONOTONE if not reasons else MonotonicityVerdict.NON_MONOTONE

    # CALM refinement (§7): coordination is required only when a handler is
    # non-monotone AND its consistency spec actually demands deterministic
    # outcomes (a coordinated level or application invariants).  Monotone
    # handlers are order-insensitive, so even a "serializable" annotation does
    # not force coordination; non-monotone handlers under eventual consistency
    # accept nondeterminism and also run coordination-free.
    consistency = program.consistency_for(handler.name)
    coordination_free = True
    if verdict is MonotonicityVerdict.NON_MONOTONE:
        if consistency.level is not ConsistencyLevel.EVENTUAL:
            coordination_free = False
            reasons.append(
                f"consistency level {consistency.level.value} over non-monotone effects"
            )
        if consistency.invariants:
            coordination_free = False
            reasons.append(
                "application invariants over non-monotone state require coordination"
            )

    if coordination_free:
        if not reasons:
            reasons.append("monotone handler: CALM guarantees coordination-free determinism")
    elif (consistency.level in (ConsistencyLevel.SERIALIZABLE, ConsistencyLevel.LINEARIZABLE)
          or consistency.invariants):
        reasons.append("total order required across replicas")
    else:
        reasons.append("non-monotone effects are ordered across replicas")

    return HandlerAnalysis(
        handler=handler.name,
        verdict=verdict,
        reasons=tuple(reasons),
        coordination_free=coordination_free,
    )


def analyze_program(program: HydroProgram) -> MonotonicityReport:
    """Analyze every query and handler of a program."""
    report = MonotonicityReport()
    non_monotone = non_monotone_queries(program)
    for query in program.queries.values():
        report.queries[query.name] = analyze_query(query, non_monotone)
    for handler in program.handlers.values():
        report.handlers[handler.name] = analyze_handler(program, handler, non_monotone)
    return report
