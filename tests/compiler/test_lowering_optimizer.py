"""Tests for query lowering, the optimizer and the recursion-strategy choice."""

import pytest

from repro.compiler import QueryPlan, lower_query_plan, lower_transitive_closure, optimize_plan
from repro.compiler.lowering import evaluate_transitive_closure
from repro.compiler.optimizer import (
    PushdownHint,
    choose_recursion_strategy,
    estimate_plan_cost,
)
from repro.hydroflow import TickScheduler


def chain_edges(n):
    return [(i, i + 1) for i in range(n)]


def expected_closure(edges):
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


class TestLowering:
    def test_scan_project_select_pipeline(self):
        plan = QueryPlan.project(
            QueryPlan.select(QueryPlan.scan("people"), lambda row: row["age"] >= 18),
            lambda row: row["pid"],
        )
        graph, sink = lower_query_plan(plan)
        scheduler = TickScheduler(graph)
        scheduler.push("people", [{"pid": 1, "age": 30}, {"pid": 2, "age": 10}])
        scheduler.run_tick()
        assert scheduler.collected(sink) == [1]

    def test_join_plan_produces_matches(self):
        plan = QueryPlan.project(
            QueryPlan.join(
                QueryPlan.scan("people"),
                QueryPlan.scan("orders"),
                left_key=lambda p: p["pid"],
                right_key=lambda o: o["pid"],
            ),
            lambda match: (match[1]["pid"], match[2]["item"]),
        )
        graph, sink = lower_query_plan(plan)
        scheduler = TickScheduler(graph)
        scheduler.push("people", [{"pid": 1}, {"pid": 2}])
        scheduler.push("orders", [{"pid": 1, "item": "book"}, {"pid": 3, "item": "pen"}])
        scheduler.run_tick()
        assert scheduler.collected(sink) == [(1, "book")]

    def test_join_over_table_rows_emits_each_match_once(self):
        """A row that arrives again, in the same tick or a later one, adds
        no second copy of its match: the join keys dict rows by content."""
        plan = QueryPlan.join(
            QueryPlan.scan("people"),
            QueryPlan.scan("orders"),
            left_key=lambda p: p["pid"],
            right_key=lambda o: o["pid"],
        )
        graph, sink = lower_query_plan(plan)
        scheduler = TickScheduler(graph)
        scheduler.push("people", [{"pid": 1}, {"pid": 1}])
        scheduler.push("orders", [{"pid": 1, "item": "book"}])
        scheduler.run_tick()
        scheduler.push("people", [{"pid": 1}])
        scheduler.run_tick()
        assert scheduler.collected(sink) == [(1, {"pid": 1}, {"pid": 1, "item": "book"})]

    def test_shared_scan_sources_are_reused(self):
        plan = QueryPlan.join(
            QueryPlan.scan("edges"), QueryPlan.scan("edges"),
            left_key=lambda e: e[1], right_key=lambda e: e[0],
        )
        graph, _ = lower_query_plan(plan)
        assert graph.operator_names().count("edges") == 1

    def test_distinct_plan(self):
        plan = QueryPlan.distinct(QueryPlan.scan("items"))
        graph, sink = lower_query_plan(plan)
        scheduler = TickScheduler(graph)
        scheduler.push("items", [1, 1, 2, 2, 3])
        scheduler.run_tick()
        assert sorted(scheduler.collected(sink)) == [1, 2, 3]

    def test_distinct_over_table_rows(self):
        """HydroLogic rows are dicts; distinct dedupes them by content and
        emits the row itself, also where the optimizer pushed a select
        below it."""
        predicate = lambda row: row["pid"] > 0
        plan = QueryPlan.select(QueryPlan.distinct(QueryPlan.scan("people")), predicate)
        optimized, report = optimize_plan(plan)
        assert report.fired("predicate-below-distinct")
        for candidate in (QueryPlan.distinct(QueryPlan.scan("people")), plan, optimized):
            graph, sink = lower_query_plan(candidate)
            scheduler = TickScheduler(graph)
            scheduler.push("people", [{"pid": 1}, {"pid": 1}])
            scheduler.run_tick()
            scheduler.push("people", [{"pid": 1}])
            scheduler.run_tick()
            assert scheduler.collected(sink) == [{"pid": 1}]

    def test_unknown_plan_kind_rejected(self):
        with pytest.raises(ValueError):
            lower_query_plan(QueryPlan("mystery"))

    def test_graph_name_and_sink(self):
        graph, sink = lower_query_plan(QueryPlan.scan("items"), graph_name="q1")
        assert graph.name == "q1"
        assert sink == "result"
        assert graph.operator_names() == ["items", "result"]

    def test_self_join_on_a_shared_scan(self):
        plan = QueryPlan.project(
            QueryPlan.join(
                QueryPlan.scan("edges"), QueryPlan.scan("edges"),
                left_key=lambda e: e[1], right_key=lambda e: e[0],
            ),
            lambda match: (match[1][0], match[2][1]),
        )
        graph, sink = lower_query_plan(plan)
        scheduler = TickScheduler(graph)
        scheduler.push("edges", [(1, 2), (2, 3), (3, 4)])
        scheduler.run_tick()
        assert sorted(scheduler.collected(sink)) == [(1, 3), (2, 4)]

    def test_lowered_plan_is_a_maintained_view(self):
        """Pushing more rows in a later tick emits only the new results."""
        plan = QueryPlan.distinct(QueryPlan.project(QueryPlan.scan("people"), lambda row: row["city"]))
        graph, sink = lower_query_plan(plan)
        scheduler = TickScheduler(graph)
        scheduler.push("people", [{"city": "Oslo"}, {"city": "Rome"}])
        scheduler.run_tick()
        scheduler.push("people", [{"city": "Rome"}, {"city": "Lima"}])
        scheduler.run_tick()
        assert scheduler.collected(sink) == ["Oslo", "Rome", "Lima"]

    def test_plan_sources_and_children(self):
        people, orders = QueryPlan.scan("people"), QueryPlan.scan("orders")
        join = QueryPlan.join(people, orders, left_key=lambda p: p, right_key=lambda o: o)
        plan = QueryPlan.distinct(join)
        assert plan.children() == [join]
        assert join.children() == [people, orders]
        assert plan.sources() == {"people", "orders"}
        assert people.sources() == {"people"}


class TestTransitiveClosureStrategies:
    @pytest.mark.parametrize("strategy", ["naive", "semi-naive"])
    def test_both_strategies_compute_the_closure(self, strategy):
        edges = chain_edges(6) + [(2, 5)]
        paths, _ = evaluate_transitive_closure(edges, strategy)
        assert paths == expected_closure(edges)

    @pytest.mark.parametrize("strategy", ["naive", "semi-naive"])
    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 2), (2, 3), (3, 1)],
            [(1, 2), (1, 3), (2, 4), (3, 4)],
            [(1, 2), (3, 4)],
            [(1, 1)],
        ],
        ids=["cycle", "diamond", "disconnected", "self-loop"],
    )
    def test_strategies_agree_on_graph_shapes(self, edges, strategy):
        paths, _ = evaluate_transitive_closure(edges, strategy)
        assert paths == expected_closure(edges)

    @pytest.mark.parametrize("strategy", ["naive", "semi-naive"])
    def test_no_edges_means_no_work(self, strategy):
        paths, stats = evaluate_transitive_closure([], strategy)
        assert paths == set()
        assert stats == {"rounds": 0, "items_moved": 0, "join_inputs": 0}

    def test_semi_naive_does_less_join_work(self):
        edges = chain_edges(30)
        _, naive_stats = evaluate_transitive_closure(edges, "naive")
        _, semi_stats = evaluate_transitive_closure(edges, "semi-naive")
        assert semi_stats["join_inputs"] < naive_stats["join_inputs"]
        assert semi_stats["items_moved"] < naive_stats["items_moved"]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            lower_transitive_closure("magical")


class TestOptimizer:
    def test_predicate_pushdown_through_join(self):
        predicate = lambda row: row["country"] == "US"
        plan = QueryPlan.select(
            QueryPlan.join(
                QueryPlan.scan("people"), QueryPlan.scan("orders"),
                left_key=lambda p: p["pid"], right_key=lambda o: o["pid"],
            ),
            predicate,
        )
        optimized, report = optimize_plan(plan, hints={id(predicate): PushdownHint(predicate, "left")})
        assert report.fired("predicate-pushdown-join")
        assert optimized.kind == "join"
        assert optimized.left.kind == "select"

    def test_predicate_pushed_below_distinct(self):
        predicate = lambda row: row > 10
        plan = QueryPlan.select(QueryPlan.distinct(QueryPlan.scan("items")), predicate)
        optimized, report = optimize_plan(plan)
        assert report.fired("predicate-below-distinct")
        assert optimized.kind == "distinct"
        assert optimized.child.kind == "select"

    def test_pushdown_reduces_estimated_cost(self):
        predicate = lambda row: row["country"] == "US"
        plan = QueryPlan.select(
            QueryPlan.join(
                QueryPlan.scan("people"), QueryPlan.scan("orders"),
                left_key=lambda p: p["pid"], right_key=lambda o: o["pid"],
            ),
            predicate,
        )
        optimized, _ = optimize_plan(plan, hints={id(predicate): PushdownHint(predicate, "left")})
        cardinalities = {"people": 10_000, "orders": 50_000}
        assert estimate_plan_cost(optimized, cardinalities) < estimate_plan_cost(plan, cardinalities)

    def test_optimized_plan_is_semantically_equivalent(self):
        predicate = lambda row: row["country"] == "US"
        plan = QueryPlan.project(
            QueryPlan.select(
                QueryPlan.join(
                    QueryPlan.scan("people"), QueryPlan.scan("orders"),
                    left_key=lambda p: p["pid"], right_key=lambda o: o["pid"],
                ),
                lambda match: match[1]["country"] == "US",
            ),
            lambda match: (match[1]["pid"], match[2]["item"]),
        )
        people = [{"pid": 1, "country": "US"}, {"pid": 2, "country": "FR"}]
        orders = [{"pid": 1, "item": "book"}, {"pid": 2, "item": "pen"}]

        def run(the_plan):
            graph, sink = lower_query_plan(the_plan)
            scheduler = TickScheduler(graph)
            scheduler.push("people", people)
            scheduler.push("orders", orders)
            scheduler.run_tick()
            return sorted(scheduler.collected(sink))

        optimized, _ = optimize_plan(plan)
        assert run(plan) == run(optimized) == [(1, "book")]

    def test_recursion_strategy_follows_monotonicity(self):
        assert choose_recursion_strategy(monotone=True) == "semi-naive"
        assert choose_recursion_strategy(monotone=False) == "naive"
