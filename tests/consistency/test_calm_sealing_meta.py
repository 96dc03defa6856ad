"""Tests for CALM coordination decisions."""

from repro.apps.covid import build_covid_program
from repro.consistency import CoordinationMechanism
from repro.core import analyze_program


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
