"""Tests for CALM coordination decisions and client-side sealing."""

from repro.apps.covid import build_covid_program
from repro.consistency import (
    CoordinationMechanism,
    SealManifest,
    SealingCoordinator,
)
from repro.core import analyze_program
from repro.lattices import SetUnion


class TestCoordinationDecisions:
    def test_covid_program_decisions(self):
        decisions = analyze_program(build_covid_program()).handlers
        assert {name: decision.mechanism for name, decision in decisions.items()} == {
            "add_person": CoordinationMechanism.NONE,
            "add_contact": CoordinationMechanism.NONE,
            "trace": CoordinationMechanism.NONE,
            "diagnosed": CoordinationMechanism.NONE,
            "likelihood": CoordinationMechanism.NONE,
            "vaccinate": CoordinationMechanism.CONSENSUS_LOG,
        }
        assert not decisions["vaccinate"].coordination_free

    def test_reasons_explain_coordination(self):
        decisions = analyze_program(build_covid_program()).handlers
        text = " ".join(decisions["vaccinate"].reasons)
        assert "vaccine_count" in text or "serializable" in text


class TestSealing:
    def test_manifest_satisfaction_is_upward_closed(self):
        manifest = SealManifest.of("cart-1", {"a", "b"})
        assert not manifest.satisfied_by(SetUnion({"a"}))
        assert manifest.satisfied_by(SetUnion({"a", "b"}))
        assert manifest.satisfied_by(SetUnion({"a", "b", "extra"}))

    def test_seal_fires_exactly_once(self):
        sealed = []
        coordinator = SealingCoordinator(on_sealed=lambda key, items: sealed.append((key, items)))
        coordinator.submit_manifest(SealManifest.of("cart-1", {"a", "b"}))
        assert not coordinator.observe("cart-1", {"a"})
        assert coordinator.observe("cart-1", {"b"})
        assert not coordinator.observe("cart-1", {"c"})
        assert sealed == [("cart-1", frozenset({"a", "b"}))]

    def test_observations_before_manifest_count(self):
        coordinator = SealingCoordinator()
        coordinator.observe("k", {"x", "y"})
        assert coordinator.submit_manifest(SealManifest.of("k", {"x"}))
        assert coordinator.sealed_value("k") == frozenset({"x"})

    def test_independent_keys_do_not_interfere(self):
        coordinator = SealingCoordinator()
        coordinator.submit_manifest(SealManifest.of("k1", {"a"}))
        coordinator.submit_manifest(SealManifest.of("k2", {"b"}))
        coordinator.observe("k1", {"a"})
        assert coordinator.is_sealed("k1")
        assert not coordinator.is_sealed("k2")
        assert coordinator.sealed_keys() == ["k1"]

    def test_replicas_seal_to_identical_values_regardless_of_order(self):
        """Determinism: two replicas observing the same items in different
        orders seal to the same final value — the heart of E3."""
        manifest = SealManifest.of("cart", {"a", "b", "c"})
        final_values = []
        for order in (["a", "b", "c"], ["c", "a", "b"]):
            coordinator = SealingCoordinator()
            coordinator.submit_manifest(manifest)
            for item in order:
                coordinator.observe("cart", {item})
            final_values.append(coordinator.sealed_value("cart"))
        assert final_values[0] == final_values[1] == frozenset({"a", "b", "c"})
