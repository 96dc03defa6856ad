"""Tests for the monotonicity / CALM analysis (E9's correctness half)."""

import pytest

from repro.apps.covid import build_covid_program
from repro.apps.shopping_cart import build_cart_program
from repro.compiler import Hydrolysis
from repro.consistency import CoordinationMechanism
from repro.core import (
    ConsistencyLevel,
    ConsistencySpec,
    EffectKind,
    EffectSpec,
    HydroProgram,
    MonotonicityVerdict,
    analyze_program,
)
from repro.core.datamodel import FieldSpec
from repro.lattices import SetUnion


def build_corpus_program():
    """A handler corpus with known ground-truth classifications."""
    program = HydroProgram("corpus")
    program.add_class("Row", fields=[FieldSpec("k", int), FieldSpec("vals", lattice=SetUnion)], key="k")
    program.add_table("rows", "Row")
    program.add_var("plain_counter", initial=0)
    program.add_var("plain_cell", initial=None)

    program.add_query("all_rows", lambda view: view.rows("rows"), reads=["rows"], monotone=True)
    program.add_query(
        "row_count_is_even",
        lambda view: view.count("rows") % 2 == 0,
        reads=["rows"],
        monotone=False,
    )

    program.add_handler(
        "pure_merge",
        lambda ctx, k, v: ctx.merge_field("rows", k, "vals", SetUnion({v})),
        params=["k", "v"],
        effects=[EffectSpec(EffectKind.MERGE, "rows")],
        reads=["rows"],
    )
    program.add_handler(
        "read_only",
        lambda ctx, k: ctx.respond(ctx.row("rows", k)),
        params=["k"],
        effects=[],
        reads=["rows"],
        queries=["all_rows"],
    )
    program.add_handler(
        "assigner",
        lambda ctx, v: ctx.assign_var("plain_cell", v),
        params=["v"],
        effects=[EffectSpec(EffectKind.ASSIGN, "plain_cell")],
        reads=[],
    )
    program.add_handler(
        "deleter",
        lambda ctx, k: ctx.delete_row("rows", k),
        params=["k"],
        effects=[EffectSpec(EffectKind.DELETE, "rows")],
        reads=["rows"],
    )
    program.add_handler(
        "merge_into_plain_var",
        lambda ctx, v: None,
        params=["v"],
        effects=[EffectSpec(EffectKind.MERGE, "plain_counter")],
        reads=[],
    )
    program.add_handler(
        "uses_non_monotone_query",
        lambda ctx: ctx.respond(ctx.query("row_count_is_even")),
        effects=[],
        reads=["rows"],
        queries=["row_count_is_even"],
    )
    program.add_handler(
        "serializable_but_monotone",
        lambda ctx, k, v: ctx.merge_field("rows", k, "vals", SetUnion({v})),
        params=["k", "v"],
        effects=[EffectSpec(EffectKind.MERGE, "rows")],
        reads=["rows"],
        consistency=ConsistencySpec(ConsistencyLevel.SERIALIZABLE),
    )
    return program


class TestHandlerClassification:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_program(build_corpus_program())

    @pytest.mark.parametrize(
        "handler,expected",
        [
            ("pure_merge", MonotonicityVerdict.MONOTONE),
            ("read_only", MonotonicityVerdict.MONOTONE),
            ("assigner", MonotonicityVerdict.NON_MONOTONE),
            ("deleter", MonotonicityVerdict.NON_MONOTONE),
            ("merge_into_plain_var", MonotonicityVerdict.NON_MONOTONE),
            ("uses_non_monotone_query", MonotonicityVerdict.NON_MONOTONE),
            ("serializable_but_monotone", MonotonicityVerdict.MONOTONE),
        ],
    )
    def test_verdicts(self, report, handler, expected):
        assert report.handlers[handler].verdict is expected

    def test_reasons_are_informative(self, report):
        reasons = " ".join(report.handlers["assigner"].reasons)
        assert "plain_cell" in reasons

    def test_monotone_serializable_handler_stays_coordination_free(self, report):
        """The CALM refinement: order-insensitive handlers need no coordination
        even when annotated serializable (the paper's vaccinate-style analysis,
        applied to a monotone handler)."""
        assert report.handlers["serializable_but_monotone"].coordination_free

    def test_non_monotone_handlers_need_coordination_only_if_required(self, report):
        # assigner is non-monotone but eventual-consistency: no coordination forced.
        assert report.handlers["assigner"].coordination_free

    def test_query_classification(self, report):
        assert report.queries["all_rows"].verdict is MonotonicityVerdict.MONOTONE
        assert report.queries["row_count_is_even"].verdict is MonotonicityVerdict.NON_MONOTONE

    def test_describe_lists_all_handlers(self, report):
        text = report.describe()
        for handler in build_corpus_program().handlers:
            assert handler in text


@pytest.mark.parametrize("level", list(ConsistencyLevel), ids=lambda level: level.value)
def test_every_level_but_eventual_plans_a_non_monotone_handler_on_the_log(level):
    """Each consistency level maps to a mechanism the deployment runs: an
    assignment is ordered through the consensus log at every level except
    ``eventual``, which runs it coordination-free."""
    program = HydroProgram("levels")
    program.add_var("cell", initial=None)
    program.add_handler(
        "assign", lambda ctx, v: ctx.assign_var("cell", v), params=["v"],
        effects=[EffectSpec(EffectKind.ASSIGN, "cell")],
        consistency=ConsistencySpec(level))
    plan = Hydrolysis().compile(program)
    expected = (CoordinationMechanism.NONE if level is ConsistencyLevel.EVENTUAL
                else CoordinationMechanism.CONSENSUS_LOG)
    assert plan.endpoint("assign").analysis.mechanism is expected


def build_nested_query_program():
    """``c`` is declared non-monotone, ``b`` reads ``c`` and ``a`` reads ``b``;
    ``loop`` is recursive through ``b``, ``closure`` only through itself."""
    program = HydroProgram("nested")
    program.add_class("Row", fields=[FieldSpec("k", int), FieldSpec("vals", lattice=SetUnion)], key="k")
    program.add_table("rows", "Row")
    program.add_query("c", lambda view: view.count("rows") % 2 == 0, reads=["rows"], monotone=False)
    program.add_query("b", lambda view: view.query("c"), reads=["c"])
    program.add_query("a", lambda view: view.query("b"), reads=["b"])
    program.add_query("loop", lambda view: None, reads=["loop", "b"], recursive=True)
    program.add_query("closure", lambda view: None, reads=["closure", "rows"], recursive=True)
    program.add_handler(
        "merge_using_a",
        lambda ctx, k, v: ctx.merge_field("rows", k, "vals", SetUnion({v})),
        params=["k", "v"],
        effects=[EffectSpec(EffectKind.MERGE, "rows")],
        reads=["rows"],
        queries=["a"],
        consistency=ConsistencySpec(ConsistencyLevel.SERIALIZABLE),
    )
    return program


class TestTransitiveQueryVerdicts:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_program(build_nested_query_program())

    def test_non_monotonicity_reaches_through_every_read(self, report):
        verdicts = {name: analysis.verdict for name, analysis in report.queries.items()}
        assert verdicts == {
            "c": MonotonicityVerdict.NON_MONOTONE,
            "b": MonotonicityVerdict.NON_MONOTONE,
            "a": MonotonicityVerdict.NON_MONOTONE,
            "loop": MonotonicityVerdict.NON_MONOTONE,
            "closure": MonotonicityVerdict.MONOTONE,
        }
        assert report.queries["a"].reasons == ("depends on non-monotone query 'b'",)

    def test_a_serializable_handler_over_a_nested_query_is_coordinated(self, report):
        analysis = report.handlers["merge_using_a"]
        assert not analysis.is_monotone
        assert analysis.mechanism is CoordinationMechanism.CONSENSUS_LOG
        assert analysis.reasons == (
            "uses non-monotone query 'a'",
            "consistency level serializable over non-monotone effects",
            "total order required across replicas",
        )


class TestCovidAnalysis:
    def test_covid_program_classification(self):
        report = analyze_program(build_covid_program())
        assert report.handlers["add_person"].is_monotone
        assert report.handlers["add_contact"].is_monotone
        assert report.handlers["diagnosed"].is_monotone
        assert report.handlers["trace"].is_monotone
        assert not report.handlers["vaccinate"].is_monotone
        assert not report.handlers["vaccinate"].coordination_free
        assert set(report.coordinated_handlers()) == {"vaccinate"}

    def test_cart_program_classification(self):
        report = analyze_program(build_cart_program())
        assert report.handlers["add_item"].is_monotone
        assert report.handlers["remove_item"].is_monotone
        # Coordinated checkout reads the cart non-monotonically via its level;
        # it is monotone in effects but serializable, and stays coordination-free
        # under CALM only because its declared effects are merges.
        assert report.handlers["checkout"].is_monotone
        assert report.handlers["sealed_checkout"].is_monotone
