"""Tests for the query-lowering example (E10): its fixpoint flow, the two
closure strategies and the predicate-pushdown rewrite."""

import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.covid import build_covid_program
from repro.core import SingleNodeInterpreter
from repro.core.state import MergeRowEffect
from repro.lattices import SetUnion

ROOT = Path(__file__).resolve().parents[2]
E10 = SimpleNamespace(**runpy.run_path(str(ROOT / "examples" / "query_lowering.py")))
STRATEGIES = ["naive", "semi-naive"]
#: pid -> contacts, as the COVID tracker's people table holds them; a
#: contact may name a pid with no row, or the pid itself.
GRAPHS = st.dictionaries(
    st.integers(0, 7), st.frozensets(st.integers(0, 9), max_size=4), max_size=8)


def chain_edges(n):
    return [(i, i + 1) for i in range(n)]


def expected_closure(edges):
    """Every (a, d) with a path from a to d: a search from each node."""
    successors = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    closure = set()
    for start in successors:
        frontier = list(successors[start])
        while frontier:
            node = frontier.pop()
            if (start, node) not in closure:
                closure.add((start, node))
                frontier.extend(successors.get(node, ()))
    return closure


def pipeline(*stages):
    """source -> stage 0 -> ... -> sink ``out``, each stage a named operator."""
    names = [f"s{index}" for index in range(len(stages))]
    flow = E10.Flow(out=E10.Sink(), **dict(zip(names, stages)))
    for upstream, downstream in zip(["src"] + names, names + ["out"]):
        flow.connect(upstream, downstream)
    return flow


class TestFlow:
    def test_map_pipeline(self):
        flow = pipeline(E10.Map(lambda x: x * 2), E10.Map(lambda x: x + 1))
        flow.run_tick("src", [1, 2, 3])
        assert flow.operators["out"].collected == [3, 5, 7]

    def test_empty_tick_moves_nothing(self):
        flow = pipeline(E10.Map(lambda x: x))
        assert flow.run_tick("src", []) == (0, 0)
        assert flow.operators["out"].collected == []

    def test_tick_counts_rounds_and_items(self):
        flow = pipeline(E10.Map(lambda x: x), E10.Distinct())
        # src->s0 moves 3, s0->s1 3, s1->out 2; one hop a round.
        assert flow.run_tick("src", [1, 1, 2]) == (3, 8)

    def test_distinct_suppresses_duplicates_within_and_across_ticks(self):
        flow = pipeline(E10.Distinct())
        flow.run_tick("src", [1, 1, 2])
        flow.run_tick("src", [2, 3])
        assert flow.operators["out"].collected == [1, 2, 3]

    def test_fan_out_delivers_to_every_consumer(self):
        flow = E10.Flow(neg=E10.Map(lambda x: -x), plain=E10.Sink(), both=E10.Sink())
        flow.connect("src", "plain")
        flow.connect("src", "neg")
        flow.connect("src", "both")
        flow.connect("neg", "both")
        flow.run_tick("src", [1, 2])
        assert flow.operators["plain"].collected == [1, 2]
        assert sorted(flow.operators["both"].collected) == [-2, -1, 1, 2]

    def test_ports_become_ready_in_connection_order(self):
        flow = E10.Flow(a=E10.Map(lambda x: ("a", x)), b=E10.Map(lambda x: ("b", x)),
                        out=E10.Sink())
        for name in ("b", "a"):
            flow.connect("src", name)
            flow.connect(name, "out")
        flow.run_tick("src", [1, 2])
        assert flow.operators["out"].collected == [("b", 1), ("b", 2), ("a", 1), ("a", 2)]

    def test_a_port_fed_twice_in_a_round_is_dispatched_once(self):
        """Two producers that fill one buffer in the same round hand it on
        as one batch in the next."""
        class Recorder:
            def __init__(self):
                self.batches = []

            def process(self, port, batch):
                self.batches.append(batch)
                return []

        flow = E10.Flow(a=E10.Map(lambda x: x), b=E10.Map(lambda x: -x), out=Recorder())
        for name in ("a", "b"):
            flow.connect("src", name)
            flow.connect(name, "out")
        assert flow.run_tick("src", [1]) == (2, 4)
        assert flow.operators["out"].batches == [[1, -1]]


class TestHashJoin:
    def build(self):
        join = E10.HashJoin(left_key=lambda item: item[0], right_key=lambda item: item[0])
        flow = E10.Flow(join=join, out=E10.Sink())
        flow.connect("l", "join", port="left")
        flow.connect("r", "join", port="right")
        flow.connect("join", "out")
        return flow, join

    def test_hash_join_emits_matches(self):
        flow, _ = self.build()
        flow.run_tick("l", [("alice", "US"), ("bob", "UK")])
        flow.run_tick("r", [("alice", "book"), ("alice", "pen"), ("carol", "hat")])
        assert flow.operators["out"].collected == [
            ("alice", ("alice", "US"), ("alice", "book")),
            ("alice", ("alice", "US"), ("alice", "pen")),
        ]

    def test_join_state_persists_across_ticks(self):
        flow, _ = self.build()
        flow.run_tick("l", [("k", 1)])
        assert flow.operators["out"].collected == []
        flow.run_tick("r", [("k", 2)])
        assert flow.operators["out"].collected == [("k", ("k", 1), ("k", 2))]

    def test_join_emits_a_match_once(self):
        flow, _ = self.build()
        flow.run_tick("l", [("k", 1), ("k", 1)])
        flow.run_tick("r", [("k", 2)])
        flow.run_tick("l", [("k", 1)])
        assert flow.operators["out"].collected == [("k", ("k", 1), ("k", 2))]

    @pytest.mark.parametrize("first, second", [("l", "r"), ("r", "l")])
    def test_matches_are_key_left_right_whichever_side_arrives_first(self, first, second):
        flow, _ = self.build()
        items = {"l": [("k", "left")], "r": [("k", "right")]}
        flow.run_tick(first, items[first])
        flow.run_tick(second, items[second])
        assert flow.operators["out"].collected == [("k", ("k", "left"), ("k", "right"))]

    def test_join_counts_its_inputs_on_both_ports(self):
        flow, join = self.build()
        flow.run_tick("l", [("a", 1), ("b", 2)])
        flow.run_tick("r", [("c", 3)])
        assert join.inputs == 3


class TestRecursion:
    def test_transitive_closure_reaches_fixpoint(self):
        paths, rounds, _, _ = E10.transitive_closure([(1, 2), (2, 3), (3, 4)], "semi-naive")
        assert {(1, 3), (1, 4), (2, 4)} <= paths
        assert rounds > 1   # it took iteration to reach the fixpoint

    def test_cycle_in_data_terminates(self):
        paths, _, _, _ = E10.transitive_closure([(1, 2), (2, 1)], "semi-naive")
        assert paths == {(1, 2), (2, 1), (1, 1), (2, 2)}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_closure_is_maintained_across_ticks(self, strategy):
        """Distinct and the join keep their state, so an edge pushed in a
        later tick extends the paths derived earlier."""
        flow, _, sink = E10.closure_flow(strategy)
        flow.run_tick("edges", [(1, 2)])
        assert sink.collected == [(1, 2)]
        flow.run_tick("edges", [(2, 3)])
        assert sorted(sink.collected) == [(1, 2), (1, 3), (2, 3)]


class TestTransitiveClosureStrategies:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_both_strategies_compute_the_closure(self, strategy):
        edges = chain_edges(6) + [(2, 5)]
        assert E10.transitive_closure(edges, strategy)[0] == expected_closure(edges)

    @pytest.mark.parametrize("strategy", STRATEGIES)
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
        assert E10.transitive_closure(edges, strategy)[0] == expected_closure(edges)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_edges_means_no_work(self, strategy):
        assert E10.transitive_closure([], strategy) == (set(), 0, 0, 0)

    def test_semi_naive_does_less_join_work(self):
        _, _, naive_moved, naive_inputs = E10.transitive_closure(chain_edges(30), "naive")
        _, _, semi_moved, semi_inputs = E10.transitive_closure(chain_edges(30), "semi-naive")
        assert semi_inputs < naive_inputs
        assert semi_moved < naive_moved

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="magical"):
            E10.closure_flow("magical")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("size", sorted(E10.EXPECTED), ids=lambda size: "x".join(map(str, size)))
    def test_pinned_counts(self, size, strategy):
        """Paths, fixpoint rounds, items moved and join inputs are
        deterministic; a scheduler change that moves one has changed the
        evaluation, not just its speed."""
        paths, *counts = E10.transitive_closure(E10.random_graph(*size), strategy)
        assert (len(paths), *counts) == E10.EXPECTED[size][strategy]

    @pytest.mark.parametrize("size", sorted(E10.EXPECTED), ids=lambda size: "x".join(map(str, size)))
    def test_strategies_derive_the_same_paths_on_the_pinned_graphs(self, size):
        graph = E10.random_graph(*size)
        naive = E10.transitive_closure(graph, "naive")[0]
        assert naive == E10.transitive_closure(graph, "semi-naive")[0] == expected_closure(graph)

    @pytest.mark.parametrize("size", sorted(E10.EXPECTED), ids=lambda size: "x".join(map(str, size)))
    def test_semi_naive_feeds_each_path_and_edge_to_the_join_once(self, size):
        graph = E10.random_graph(*size)
        paths, _, _, join_inputs = E10.transitive_closure(graph, "semi-naive")
        assert join_inputs == len(paths) + len(graph)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=14))
    @settings(max_examples=100, deadline=None)
    def test_semi_naive_never_does_more_work_than_naive(self, edges):
        naive = E10.transitive_closure(edges, "naive")
        semi = E10.transitive_closure(edges, "semi-naive")
        assert semi[0] == naive[0] == expected_closure(edges)
        assert semi[2] <= naive[2] and semi[3] <= naive[3]

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=14))
    @settings(max_examples=100, deadline=None)
    def test_semi_naive_join_inputs_are_paths_plus_edges_on_any_graph(self, edges):
        paths, _, _, join_inputs = E10.transitive_closure(edges, "semi-naive")
        assert join_inputs == len(paths) + len(edges)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @given(graph=GRAPHS)
    @settings(max_examples=100, deadline=None)
    def test_lowering_agrees_with_the_deployed_transitive_query(self, strategy, graph):
        """The deployed tracker answers ``transitive`` by a search; the
        lowered view must derive the same pairs from the same contacts."""
        interp = SingleNodeInterpreter(build_covid_program())
        for pid, contacts in graph.items():
            interp.state.apply(
                MergeRowEffect("people", {"pid": pid, "contacts": SetUnion(contacts)}))
        edges = [(pid, contact) for pid, contacts in graph.items() for contact in contacts]
        assert interp.view().query("transitive") == E10.transitive_closure(edges, strategy)[0]

    def test_random_graph_is_seeded_and_has_no_self_loops(self):
        graph = E10.random_graph(30, 60)
        assert graph == E10.random_graph(30, 60) != E10.random_graph(30, 60, seed=14)
        assert len(set(graph)) == 60
        assert all(a != b and 0 <= a < 30 and 0 <= b < 30 for a, b in graph)


class TestPredicatePushdown:
    CARDINALITIES = {"people": 100_000, "contacts": 500_000}

    def plan(self):
        join = E10.Plan("join", inputs=(E10.Plan("scan", "people"), E10.Plan("scan", "contacts")))
        return E10.Plan("select", predicate=lambda row: row["country"] == "US", inputs=(join,))

    @pytest.mark.parametrize("side", [0, 1])
    def test_select_moves_below_the_join_on_the_chosen_side(self, side):
        plan = self.plan()
        pushed = E10.push_down(plan, side)
        assert pushed.kind == "join"
        assert pushed.inputs[side] == E10.Plan(
            "select", predicate=plan.predicate, inputs=(plan.inputs[0].inputs[side],))
        assert pushed.inputs[1 - side] == plan.inputs[0].inputs[1 - side]

    @pytest.mark.parametrize("side", [0, 1])
    def test_pushdown_reduces_estimated_cost(self, side):
        before, rows_before = E10.estimate_cost(self.plan(), self.CARDINALITIES)
        after, rows_after = E10.estimate_cost(E10.push_down(self.plan(), side), self.CARDINALITIES)
        assert after < before
        assert rows_after == pytest.approx(rows_before)

    def test_pinned_estimates(self):
        before, _ = E10.estimate_cost(self.plan(), self.CARDINALITIES)
        after, _ = E10.estimate_cost(E10.push_down(self.plan(), 0), self.CARDINALITIES)
        assert (round(before), round(after)) == (10_001_200_000, 501_210_000)

    @pytest.mark.parametrize("kind", ["scan", "select-over-scan", "join"])
    def test_other_plans_are_left_alone(self, kind):
        people = E10.Plan("scan", "people")
        plan = {"scan": people,
                "select-over-scan": E10.Plan("select", predicate=bool, inputs=(people,)),
                "join": self.plan().inputs[0]}[kind]
        assert E10.push_down(plan, 0) is plan

    def test_scan_touches_and_emits_its_table(self):
        assert E10.estimate_cost(E10.Plan("scan", "people"), self.CARDINALITIES) == (100_000, 100_000)

    def test_select_emits_a_selectivity_share_of_its_input(self):
        select = E10.Plan("select", predicate=bool, inputs=(E10.Plan("scan", "people"),))
        assert E10.estimate_cost(select, self.CARDINALITIES, selectivity=0.25) == (200_000, 25_000)

    def test_join_pays_for_its_output(self):
        join = self.plan().inputs[0]
        work, rows = E10.estimate_cost(join, {"people": 10, "contacts": 20}, selectivity=0.5)
        assert rows == 10 * 20 * 0.5
        assert work == (10 + 10) + (20 + 20) + rows


def test_main_asserts_its_pins_and_prints_each_strategy(capsys):
    E10.main()
    out = capsys.readouterr().out
    assert out.count("semi-naive  join inputs") == len(E10.EXPECTED)
    assert "select below join     501,210,000" in out
