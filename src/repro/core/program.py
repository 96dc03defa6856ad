"""The HydroProgram: a complete PACT specification.

A program bundles the data model, queries, UDFs and handlers (the P facet)
with availability, consistency and target facet maps.  The builder API maps
one-to-one onto the declarations of Figure 3: ``add_class`` / ``add_table``
/ ``add_var`` for lines 1–5, ``query`` and ``handler`` for the ``query`` /
``on`` blocks, and ``set_*`` methods for the trailing facet blocks.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.core.datamodel import DataModel, EntityClass, FieldSpec
from repro.core.errors import SpecificationError
from repro.core.facets import (
    AvailabilitySpec,
    ConsistencyLevel,
    ConsistencySpec,
    FacetMap,
    Invariant,
    TargetSpec,
)
from repro.core.handlers import EffectKind, EffectSpec, Handler, Query, UDF
from repro.lattices.base import Lattice


class HydroProgram:
    """A HydroLogic program: data model + handlers + facets."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.datamodel = DataModel()
        self.queries: dict[str, Query] = {}
        self.udfs: dict[str, UDF] = {}
        self.handlers: dict[str, Handler] = {}
        self.consistency: FacetMap[ConsistencySpec] = FacetMap(ConsistencySpec())
        self.availability: FacetMap[AvailabilitySpec] = FacetMap(AvailabilitySpec())
        self.targets: FacetMap[TargetSpec] = FacetMap(TargetSpec())

    # -- data model ---------------------------------------------------------------

    def add_class(
        self,
        name: str,
        fields: Sequence[FieldSpec],
        key: str,
        partition_by: Optional[str] = None,
    ) -> EntityClass:
        entity = EntityClass(name, tuple(fields), key, partition_by)
        return self.datamodel.add_class(entity)

    def add_table(self, name: str, entity: EntityClass | str):
        return self.datamodel.add_table(name, entity)

    def add_var(self, name: str, lattice: Optional[type[Lattice]] = None, initial: Any = None):
        return self.datamodel.add_var(name, lattice, initial)

    # -- program semantics ----------------------------------------------------------

    def add_query(
        self,
        name: str,
        fn: Callable[..., Any],
        reads: Iterable[str] = (),
        monotone: bool = True,
    ) -> Query:
        if name in self.queries:
            raise SpecificationError(f"query {name!r} already declared")
        query = Query(name, fn, tuple(reads), monotone)
        self.queries[name] = query
        return query

    def add_udf(self, name: str, fn: Callable[..., Any]) -> UDF:
        if name in self.udfs:
            raise SpecificationError(f"UDF {name!r} already declared")
        udf = UDF(name, fn)
        self.udfs[name] = udf
        return udf

    def add_handler(
        self,
        name: str,
        body: Callable[..., Any],
        params: Iterable[str] = (),
        effects: Iterable[EffectSpec] = (),
        reads: Iterable[str] = (),
        queries: Iterable[str] = (),
        udfs: Iterable[str] = (),
        consistency: Optional[ConsistencySpec] = None,
        availability: Optional[AvailabilitySpec] = None,
        target: Optional[TargetSpec] = None,
        doc: str = "",
    ) -> Handler:
        if name in self.handlers:
            raise SpecificationError(f"handler {name!r} already declared")
        handler = Handler(
            name=name,
            body=body,
            params=tuple(params),
            effects=tuple(effects),
            reads=tuple(reads),
            queries=tuple(queries),
            udfs=tuple(udfs),
            doc=doc,
        )
        self.handlers[name] = handler
        if consistency is not None:
            self.consistency.override(name, consistency)
        if availability is not None:
            self.availability.override(name, availability)
        if target is not None:
            self.targets.override(name, target)
        return handler

    # -- facets -----------------------------------------------------------------------

    def set_default_availability(self, spec: AvailabilitySpec) -> None:
        self.availability.set_default(spec)

    def set_default_target(self, spec: TargetSpec) -> None:
        self.targets.set_default(spec)

    def consistency_for(self, handler: str) -> ConsistencySpec:
        return self.consistency.for_endpoint(handler)

    def availability_for(self, handler: str) -> AvailabilitySpec:
        return self.availability.for_endpoint(handler)

    def target_for(self, handler: str) -> TargetSpec:
        return self.targets.for_endpoint(handler).merged_over(self.targets.default)

    # -- validation ---------------------------------------------------------------------

    def handler(self, name: str) -> Handler:
        if name not in self.handlers:
            raise SpecificationError(f"unknown handler {name!r}")
        return self.handlers[name]

    def validate(self) -> None:
        """Cross-check declarations: every referenced name must exist."""
        state_names = set(self.datamodel.state_names())
        for handler in self.handlers.values():
            for spec in handler.effects:
                if spec.kind in (EffectKind.MERGE, EffectKind.ASSIGN, EffectKind.DELETE):
                    if spec.target not in state_names:
                        raise SpecificationError(
                            f"handler {handler.name!r} declares effect on unknown "
                            f"state {spec.target!r}"
                        )
            for read in handler.reads:
                if read not in state_names and read not in self.queries:
                    raise SpecificationError(
                        f"handler {handler.name!r} reads unknown state/query {read!r}"
                    )
            for query_name in handler.queries:
                if query_name not in self.queries:
                    raise SpecificationError(
                        f"handler {handler.name!r} references unknown query {query_name!r}"
                    )
            for udf_name in handler.udfs:
                if udf_name not in self.udfs:
                    raise SpecificationError(
                        f"handler {handler.name!r} references unknown UDF {udf_name!r}"
                    )
        for query in self.queries.values():
            for read in query.reads:
                if read not in state_names and read not in self.queries:
                    raise SpecificationError(
                        f"query {query.name!r} reads unknown state/query {read!r}"
                    )

    def describe(self) -> str:
        lines = [f"HydroProgram {self.name!r}", self.datamodel.describe(), "Handlers:"]
        for handler in self.handlers.values():
            consistency = self.consistency_for(handler.name)
            availability = self.availability_for(handler.name)
            lines.append(
                f"  on {handler.name}({', '.join(handler.params)}) "
                f"effects={list(handler.effects)} "
                f"consistency={consistency.level.value} "
                f"availability=f{availability.failures}@{availability.domain.value}"
            )
        if self.queries:
            lines.append("Queries:")
            for query in self.queries.values():
                flag = "monotone" if query.monotone else "opaque"
                lines.append(f"  query {query.name} [{flag}]")
        return "\n".join(lines)
