"""HydroLogic: the declarative, faceted intermediate representation.

This package is the paper's §3–§7 made concrete.  A
:class:`~repro.core.program.HydroProgram` bundles the four PACT facets:

* **P**rogram semantics — a data model (classes, tables, lattice vars), named
  queries, and message handlers whose effects are declared (merge / assign /
  send) and enforced at runtime;
* **A**vailability — per-endpoint replication requirements over failure
  domains;
* **C**onsistency — per-endpoint consistency levels and application
  invariants;
* **T**argets — per-endpoint latency / cost / placement objectives.

The :class:`~repro.core.interpreter.SingleNodeInterpreter` gives the
reference "single-node metaphor" semantics: a transducer event loop where
each tick snapshots state, runs handlers to fixpoint, and applies deferred
mutations and sends atomically at end of tick.  Distribution, replication
and coordination are added by the Hydrolysis compiler
(:mod:`repro.compiler`) without changing program semantics.
"""

from repro.core.datamodel import DataModel, EntityClass, FieldSpec, TableDecl, VarDecl
from repro.core.errors import (
    EffectViolation,
    HydroLogicError,
    InvariantViolation,
    UnknownHandlerError,
)
from repro.core.facets import (
    AvailabilitySpec,
    ConsistencyLevel,
    ConsistencySpec,
    FacetMap,
    Invariant,
    TargetSpec,
)
from repro.core.handlers import EffectKind, EffectSpec, Handler, HandlerContext, Query, UDF
from repro.core.interpreter import SingleNodeInterpreter, TickOutcome
from repro.core.monotonicity import MonotonicityReport, MonotonicityVerdict, analyze_program
from repro.core.program import HydroProgram

__all__ = [
    "DataModel",
    "EntityClass",
    "FieldSpec",
    "TableDecl",
    "VarDecl",
    "HydroLogicError",
    "EffectViolation",
    "InvariantViolation",
    "UnknownHandlerError",
    "ConsistencyLevel",
    "ConsistencySpec",
    "AvailabilitySpec",
    "TargetSpec",
    "Invariant",
    "FacetMap",
    "Handler",
    "HandlerContext",
    "Query",
    "UDF",
    "EffectKind",
    "EffectSpec",
    "HydroProgram",
    "SingleNodeInterpreter",
    "TickOutcome",
    "MonotonicityVerdict",
    "MonotonicityReport",
    "analyze_program",
]
