"""Failure domains and placement topology.

The availability facet's contract is "remain available in the face of *f*
independent failures", where independence is defined by failure domains
(VMs, racks, data centers, availability zones).  This module models the
domain hierarchy and answers the placement questions the availability
compiler stage asks: how many distinct domains does a replica set span, and
does a placement tolerate *f* domain failures?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable, Iterable, Mapping


class FailureDomain(str, Enum):
    """Granularities of failure independence, coarsest last."""

    VM = "vm"
    RACK = "rack"
    DATACENTER = "datacenter"
    AVAILABILITY_ZONE = "az"
    REGION = "region"


#: Ordering of domains from finest to coarsest, used to validate hierarchies.
DOMAIN_ORDER = [
    FailureDomain.VM,
    FailureDomain.RACK,
    FailureDomain.DATACENTER,
    FailureDomain.AVAILABILITY_ZONE,
    FailureDomain.REGION,
]


@dataclass
class Topology:
    """The physical layout: which domain instance each node lives in.

    ``assignments`` maps node id -> {domain granularity -> domain instance id},
    e.g. ``{"node1": {FailureDomain.VM: "vm-1", FailureDomain.AVAILABILITY_ZONE: "az-a"}}``.
    """

    assignments: dict[Hashable, dict[FailureDomain, Hashable]] = field(default_factory=dict)

    def place(self, node_id: Hashable, **domains: Hashable) -> None:
        """Assign a node to domain instances, e.g. ``place("n1", az="az-a", vm="vm-3")``."""
        resolved: dict[FailureDomain, Hashable] = {}
        for name, instance in domains.items():
            resolved[FailureDomain(name)] = instance
        self.assignments.setdefault(node_id, {}).update(resolved)

    def domain_of(self, node_id: Hashable, granularity: FailureDomain) -> Hashable:
        """The domain instance hosting ``node_id`` at ``granularity``.

        Nodes with no explicit assignment at that granularity fall back to a
        per-node singleton domain, which conservatively treats them as
        independent.
        """
        return self.assignments.get(node_id, {}).get(granularity, (granularity, node_id))

    def nodes(self) -> list[Hashable]:
        return list(self.assignments)

    def nodes_in(self, granularity: FailureDomain, instance: Hashable) -> list[Hashable]:
        """All nodes placed in a specific domain instance."""
        return [
            node_id
            for node_id in self.assignments
            if self.domain_of(node_id, granularity) == instance
        ]

    def distinct_domains(
        self, node_ids: Iterable[Hashable], granularity: FailureDomain
    ) -> set[Hashable]:
        """The set of domain instances covered by ``node_ids`` at ``granularity``."""
        return {self.domain_of(node_id, granularity) for node_id in node_ids}


@dataclass
class Placement:
    """A replica placement for one endpoint, checked against an availability spec."""

    endpoint: str
    replicas: list[Hashable]
    topology: Topology

    def tolerates(self, failures: int, granularity: FailureDomain) -> bool:
        """True iff the endpoint survives ``failures`` domain failures.

        Survival requires at least one replica outside any set of
        ``failures`` domains, i.e. the replicas must span at least
        ``failures + 1`` distinct domain instances.
        """
        domains = self.topology.distinct_domains(self.replicas, granularity)
        return len(domains) >= failures + 1

    def surviving_replicas(
        self, failed_domains: Iterable[Hashable], granularity: FailureDomain
    ) -> list[Hashable]:
        """Replicas outside all of ``failed_domains``."""
        failed = set(failed_domains)
        return [
            replica
            for replica in self.replicas
            if self.topology.domain_of(replica, granularity) not in failed
        ]
