"""Replica placement against availability specs.

Bridges the availability facet and the cluster topology: for every handler,
pick enough replicas spread across enough distinct failure domains to honour
its :class:`~repro.core.facets.AvailabilitySpec`, and verify the resulting
placement actually tolerates the requested failures.

Candidate nodes are ordered by walking a deterministic consistent-hash ring
(:class:`~repro.storage.ring.HashRing`) from the handler's digest, so
placements are byte-identical across processes (no dependence on
``PYTHONHASHSEED``) and stable under node churn: adding or removing one
candidate only disturbs the handlers whose ring walk passes through it.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.cluster.domains import FailureDomain, Placement, Topology
from repro.core.errors import NotDeployableError
from repro.core.program import HydroProgram
from repro.storage.ring import HashRing


def ring_spread(
    ring: HashRing,
    topology: Topology,
    handler: str,
    count: int,
    granularity: FailureDomain,
) -> list[Hashable]:
    """Pick ``count`` nodes from the ring walk for ``handler``.

    Nodes in not-yet-covered failure domains are preferred, so the result
    maximises domain coverage exactly like a greedy spread — but the
    preference order within and across domains is the handler's ring walk,
    which is deterministic and minimally disturbed by membership changes.
    Raises :class:`ValueError` when there are not enough candidate nodes.
    """
    if count > len(ring):
        raise ValueError(f"cannot place {count} replicas on {len(ring)} nodes")
    walk = ring.nodes_for(handler, len(ring))
    chosen: list[Hashable] = []
    passed_over: list[Hashable] = []
    covered: set[Hashable] = set()
    for node in walk:
        domain = topology.domain_of(node, granularity)
        if domain in covered:
            passed_over.append(node)
            continue
        covered.add(domain)
        chosen.append(node)
        if len(chosen) == count:
            return chosen
    for node in passed_over:
        chosen.append(node)
        if len(chosen) == count:
            break
    return chosen


def plan_placements(
    program: HydroProgram,
    topology: Topology,
    candidate_nodes: Iterable[Hashable],
    ring: HashRing | None = None,
) -> dict[str, Placement]:
    """Choose a replica placement per handler satisfying its availability spec.

    Raises :class:`NotDeployableError` when the topology cannot provide the
    required number of distinct failure domains for some handler.  Pass a
    prebuilt ``ring`` to share one (e.g. the KVS routing ring) across
    compilation stages; by default one is built over the candidates.
    """
    candidates = list(candidate_nodes)
    if ring is None:
        ring = HashRing(candidates)
    placements: dict[str, Placement] = {}
    for handler in program.handlers:
        spec = program.availability_for(handler)
        required = spec.replicas_required
        try:
            replicas = ring_spread(ring, topology, handler, required, spec.domain)
        except ValueError as exc:
            raise NotDeployableError(
                f"handler {handler!r} needs {required} replicas but only "
                f"{len(candidates)} candidate nodes exist"
            ) from exc
        placement = Placement(handler, replicas, topology)
        if not placement.tolerates(spec.failures, spec.domain):
            raise NotDeployableError(
                f"handler {handler!r} requires tolerance of {spec.failures} "
                f"{spec.domain.value} failures but the topology only offers "
                f"{len(topology.distinct_domains(replicas, spec.domain))} distinct domains"
            )
        placements[handler] = placement
    return placements


def placement_summary(placements: dict[str, Placement]) -> dict[str, int]:
    """Replica counts per handler (for explain output and benchmarks)."""
    return {handler: len(p.replicas) for handler, p in placements.items()}
