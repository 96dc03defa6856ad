"""Tests for replica placement against availability specs."""

import pytest

from repro.apps.covid import build_covid_program
from repro.cluster import FailureDomain, Topology
from repro.core.errors import NotDeployableError
from repro.placement import placement_summary, plan_placements


class TestPlacementPlanning:
    def topology(self, azs=3, per_az=2):
        topo = Topology()
        nodes = []
        for az in range(azs):
            for i in range(per_az):
                node_id = f"n-{az}-{i}"
                topo.place(node_id, az=f"az-{az}", vm=f"vm-{az}-{i}")
                nodes.append(node_id)
        return topo, nodes

    def test_placements_satisfy_default_spec(self):
        program = build_covid_program()
        topo, nodes = self.topology()
        placements = plan_placements(program, topo, nodes)
        # default facet: tolerate 2 AZ failures -> 3 replicas across 3 AZs
        assert placement_summary(placements)["add_person"] == 3
        assert placements["add_person"].tolerates(2, FailureDomain.AVAILABILITY_ZONE)

    def test_override_reduces_replicas(self):
        program = build_covid_program()
        topo, nodes = self.topology()
        placements = plan_placements(program, topo, nodes)
        # likelihood overrides to f=1 -> 2 replicas
        assert placement_summary(placements)["likelihood"] == 2

    def test_insufficient_domains_rejected(self):
        program = build_covid_program()
        topo, nodes = self.topology(azs=1, per_az=4)
        with pytest.raises(NotDeployableError):
            plan_placements(program, topo, nodes)

    def test_insufficient_nodes_rejected(self):
        program = build_covid_program()
        topo, nodes = self.topology(azs=2, per_az=1)
        with pytest.raises(NotDeployableError):
            plan_placements(program, topo, nodes)

    def test_placements_deterministic_and_ring_stable(self):
        """Placement comes from a consistent-hash ring walk: identical across
        runs, and adding one node only disturbs handlers whose walk hits it."""
        program = build_covid_program()
        topo, nodes = self.topology()
        first = plan_placements(program, topo, nodes)
        second = plan_placements(program, topo, nodes)
        assert {h: p.replicas for h, p in first.items()} == \
            {h: p.replicas for h, p in second.items()}
        # Node churn: one extra node must not reshuffle every placement.
        topo2, nodes2 = self.topology()
        topo2.place("n-extra", az="az-0", vm="vm-extra")
        churned = plan_placements(program, topo2, nodes2 + ["n-extra"])
        unchanged = sum(
            1 for handler in first
            if churned[handler].replicas == first[handler].replicas
        )
        assert unchanged >= len(first) // 2

    def test_placements_spread_replicas_across_handlers(self):
        """The ring walk starts at each handler's digest, so different
        handlers spread load over different nodes instead of piling onto a
        fixed candidate prefix."""
        program = build_covid_program()
        topo, nodes = self.topology()
        placements = plan_placements(program, topo, nodes)
        used = {replica for p in placements.values() for replica in p.replicas}
        assert len(used) > 3
