"""The Availability, Consistency and Target facets (§6, §7, §9).

Each facet is a per-endpoint specification with a program-wide default and
optional per-handler overrides, mirroring the ``availability:`` /
``consistency`` / ``target:`` blocks of Figure 3.  Facets are pure data —
the Hydrolysis compiler reads them to choose replication degree,
coordination mechanisms and machine placement; the runtimes enforce them.

Every value a facet accepts has a mechanism behind it: under ``eventual``
a non-monotone handler runs coordination-free, and the three stronger
levels put it on the deployment's consensus log.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Generic, Mapping, Optional, TypeVar

from repro.cluster.domains import FailureDomain


class ConsistencyLevel(str, Enum):
    """History-based consistency/isolation levels, weakest to strongest."""

    EVENTUAL = "eventual"
    SEQUENTIAL = "sequential"
    SERIALIZABLE = "serializable"
    LINEARIZABLE = "linearizable"


@dataclass(frozen=True)
class Invariant:
    """An application-centric consistency invariant over program state.

    ``predicate`` receives a read-only state view (the interpreter's
    snapshot API) and returns True when the invariant holds.  Examples:
    non-negative ``vaccine_count``, referential integrity of ``contacts``.
    """

    name: str
    predicate: Callable[[Any], bool]
    description: str = ""

    def holds(self, state_view: Any) -> bool:
        return bool(self.predicate(state_view))


@dataclass(frozen=True)
class ConsistencySpec:
    """Consistency requirements for one endpoint."""

    level: ConsistencyLevel = ConsistencyLevel.EVENTUAL
    invariants: tuple[Invariant, ...] = ()


@dataclass(frozen=True)
class AvailabilitySpec:
    """Availability requirements: tolerate ``failures`` across ``domain``."""

    domain: FailureDomain = FailureDomain.AVAILABILITY_ZONE
    failures: int = 1

    @property
    def replicas_required(self) -> int:
        """Minimum replica count: one more than the tolerated failures."""
        return self.failures + 1


@dataclass(frozen=True)
class TargetSpec:
    """Performance/cost objectives for one endpoint (§9)."""

    latency_ms: Optional[float] = 100.0
    cost_units: Optional[float] = 0.01
    processor: str = "cpu"
    max_machines: Optional[int] = None

    def merged_over(self, default: "TargetSpec") -> "TargetSpec":
        """Fill unspecified fields from a default spec."""
        return TargetSpec(
            latency_ms=self.latency_ms if self.latency_ms is not None else default.latency_ms,
            cost_units=self.cost_units if self.cost_units is not None else default.cost_units,
            processor=self.processor or default.processor,
            max_machines=self.max_machines if self.max_machines is not None else default.max_machines,
        )


SpecT = TypeVar("SpecT")


class FacetMap(Generic[SpecT]):
    """A facet's program-wide default plus per-endpoint overrides."""

    def __init__(self, default: SpecT) -> None:
        self._default = default
        self._overrides: dict[str, SpecT] = {}

    @property
    def default(self) -> SpecT:
        return self._default

    def set_default(self, spec: SpecT) -> None:
        self._default = spec

    def override(self, endpoint: str, spec: SpecT) -> None:
        self._overrides[endpoint] = spec

    def for_endpoint(self, endpoint: str) -> SpecT:
        return self._overrides.get(endpoint, self._default)

    def overrides(self) -> Mapping[str, SpecT]:
        return dict(self._overrides)

    def __repr__(self) -> str:
        return f"FacetMap(default={self._default!r}, overrides={sorted(self._overrides)})"
