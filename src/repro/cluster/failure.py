"""Failure injection: crash plans and domain-wide outages.

Availability experiments (E6) need to knock out individual nodes or whole
failure domains at chosen simulated times, then optionally bring them back.
The injector operates purely through the public :class:`Node` crash/recover
API so that any protocol built on nodes is exercised the same way a real
outage would exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional

from repro.cluster.domains import FailureDomain, Topology
from repro.cluster.node import Node
from repro.cluster.simulator import Simulator


@dataclass
class CrashPlan:
    """A scheduled crash (and optional recovery) of a single node."""

    node_id: Hashable
    crash_at: float
    recover_at: Optional[float] = None
    lose_state: bool = False


class FailureInjector:
    """Schedules crashes and recoveries against a set of nodes."""

    def __init__(self, simulator: Simulator, nodes: dict[Hashable, Node],
                 topology: Topology | None = None) -> None:
        self.simulator = simulator
        self.nodes = nodes
        self.topology = topology
        self.crashes_injected = 0
        self.recoveries_injected = 0

    def apply(self, plan: CrashPlan) -> None:
        """Schedule one crash plan; a rejected plan schedules nothing."""
        if plan.recover_at is not None and plan.recover_at <= plan.crash_at:
            raise ValueError("recover_at must be after crash_at")
        node = self.nodes[plan.node_id]
        self.simulator.schedule_at(plan.crash_at, node.crash, label=f"crash {plan.node_id}")
        self.crashes_injected += 1
        if plan.recover_at is not None:
            self.simulator.schedule_at(
                plan.recover_at,
                lambda: node.recover(lose_state=plan.lose_state),
                label=f"recover {plan.node_id}",
            )
            self.recoveries_injected += 1

    def apply_all(self, plans: Iterable[CrashPlan]) -> None:
        for plan in plans:
            self.apply(plan)

    def crash_now(self, node_id: Hashable) -> None:
        """Crash a node immediately (at the current simulated time)."""
        self.nodes[node_id].crash()
        self.crashes_injected += 1

    def recover_now(self, node_id: Hashable, lose_state: bool = False) -> None:
        self.nodes[node_id].recover(lose_state=lose_state)
        self.recoveries_injected += 1

    def crash_domain(
        self,
        granularity: FailureDomain,
        instance: Hashable,
        at: float,
        recover_at: Optional[float] = None,
    ) -> list[CrashPlan]:
        """Crash every node in a failure-domain instance; returns the plans used."""
        if self.topology is None:
            raise ValueError("crash_domain requires a Topology")
        plans = [
            CrashPlan(node_id=node_id, crash_at=at, recover_at=recover_at)
            for node_id in self.topology.nodes_in(granularity, instance)
            if node_id in self.nodes
        ]
        self.apply_all(plans)
        return plans

    def alive_nodes(self) -> list[Hashable]:
        return [node_id for node_id, node in self.nodes.items() if node.alive]

    def dead_nodes(self) -> list[Hashable]:
        return [node_id for node_id, node in self.nodes.items() if not node.alive]
