"""Tests for Hydroflow operators, graph construction and the tick scheduler."""

import pytest

from repro.hydroflow import (
    DistinctOperator,
    FilterOperator,
    FlowGraph,
    HashJoinOperator,
    MapOperator,
    Port,
    SinkOperator,
    SourceOperator,
    TickScheduler,
)
from repro.hydroflow.scheduler import MAX_ROUNDS


def linear_graph():
    graph = FlowGraph("linear")
    graph.add(SourceOperator("src"))
    graph.add(MapOperator("double", lambda x: x * 2))
    graph.add(FilterOperator("evens", lambda x: x % 4 == 0))
    graph.add(SinkOperator("out"))
    graph.connect("src", "double")
    graph.connect("double", "evens")
    graph.connect("evens", "out")
    return graph


class TestGraphConstruction:
    def test_duplicate_operator_rejected(self):
        graph = FlowGraph()
        graph.add(SourceOperator("src"))
        with pytest.raises(ValueError):
            graph.add(SourceOperator("src"))

    def test_connect_unknown_operator_rejected(self):
        graph = FlowGraph()
        graph.add(SourceOperator("src"))
        with pytest.raises(KeyError):
            graph.connect("src", "missing")

    def test_connect_unknown_port_rejected(self):
        graph = FlowGraph()
        graph.add(SourceOperator("src"))
        graph.add(MapOperator("m", lambda x: x))
        with pytest.raises(ValueError):
            graph.connect("src", "m", port="left")

    def test_connect_unknown_source_rejected(self):
        graph = FlowGraph()
        graph.add(SinkOperator("out"))
        with pytest.raises(KeyError):
            graph.connect("missing", "out")

    def test_operator_names_keep_insertion_order(self):
        graph = linear_graph()
        assert graph.operator_names() == ["src", "double", "evens", "out"]
        assert [op.name for op in graph.operators()] == graph.operator_names()
        assert isinstance(graph.operator("double"), MapOperator)

    def test_downstream_ports_in_connection_order(self):
        graph = FlowGraph()
        graph.add(SourceOperator("src"))
        graph.add(SinkOperator("b"))
        graph.add(HashJoinOperator("j", left_key=lambda x: x, right_key=lambda x: x))
        graph.connect("src", "b")
        graph.connect("src", "j", port="right")
        graph.connect("src", "j", port="left")
        assert graph.downstream_ports("src") == [Port("b"), Port("j", "right"), Port("j", "left")]
        assert repr(Port("j", "left")) == "j.left"

    def test_connect_accepts_operator_objects(self):
        graph = FlowGraph()
        src = graph.add(SourceOperator("src"))
        out = graph.add(SinkOperator("out"))
        graph.connect(src, out)
        assert graph.downstream_ports("src") == [Port("out", "in")]


class TestBasicPipeline:
    def test_map_filter_pipeline(self):
        graph = linear_graph()
        scheduler = TickScheduler(graph)
        scheduler.push("src", [1, 2, 3, 4])
        scheduler.run_tick()
        assert scheduler.collected("out") == [4, 8]

    def test_items_only_visible_after_push(self):
        graph = linear_graph()
        scheduler = TickScheduler(graph)
        result = scheduler.run_tick()
        assert result.items_moved == 0
        assert scheduler.collected("out") == []

    def test_distinct_suppresses_duplicates_across_ticks(self):
        graph = FlowGraph()
        graph.add(SourceOperator("src"))
        graph.add(DistinctOperator("dedup"))
        graph.add(SinkOperator("out"))
        graph.connect("src", "dedup")
        graph.connect("dedup", "out")
        scheduler = TickScheduler(graph)
        scheduler.push("src", [1, 1, 2])
        scheduler.run_tick()
        scheduler.push("src", [2, 3])
        scheduler.run_tick()
        assert scheduler.collected("out") == [1, 2, 3]

    def test_distinct_keys_dict_rows_by_content(self):
        """Rows equal as dicts are one row, whatever their key order; the
        first row itself is what flows on."""
        dedup = DistinctOperator("dedup")
        first = {"a": 1, "b": 2}
        out = dedup.process("in", [first, {"b": 2, "a": 1}, {"a": 1, "b": 3}])
        assert out == [first, {"a": 1, "b": 3}]
        assert out[0] is first
        assert dedup.process("in", [{"b": 2, "a": 1}]) == []

    @pytest.mark.parametrize("row, twin", [
        ({"a": [1]}, {"a": [1]}),
        ({"a": {1, 2}}, {"a": {2, 1}}),
        ({"a": {"x": 1, "y": 2}}, {"a": {"y": 2, "x": 1}}),
        ({"a": [{"b": 1}]}, {"a": [{"b": 1}]}),
        ((1, {"a": 1}), (1, {"a": 1})),
    ], ids=["list", "set", "nested-dict", "list-of-dicts", "tuple-holding-dict"])
    def test_distinct_keys_collection_valued_rows_by_content(self, row, twin):
        """A row is frozen all the way down, so a collection inside it is
        remembered by content too."""
        dedup = DistinctOperator("dedup")
        assert dedup.process("in", [row, twin]) == [row]
        assert dedup.process("in", [twin]) == []

    def test_items_processed_counts_duplicates(self):
        dedup = DistinctOperator("dedup")
        dedup.process("in", [1, 1, 2])
        dedup.process("in", [2])
        assert dedup.items_processed == 4

    def test_tick_result_counts_rounds_and_items(self):
        scheduler = TickScheduler(linear_graph())
        scheduler.push("src", [1, 2, 3, 4])
        result = scheduler.run_tick()
        # src->double moves 4, double->evens 4, evens->out 2; one hop a round.
        assert (result.tick, result.rounds, result.items_moved) == (1, 3, 10)

    def test_fan_out_delivers_to_every_consumer(self):
        graph = FlowGraph()
        graph.add(SourceOperator("src"))
        graph.add(MapOperator("neg", lambda x: -x))
        graph.add(SinkOperator("plain"))
        graph.add(SinkOperator("both"))
        graph.connect("src", "plain")
        graph.connect("src", "neg")
        graph.connect("src", "both")
        graph.connect("neg", "both")
        scheduler = TickScheduler(graph)
        scheduler.push("src", [1, 2])
        scheduler.run_tick()
        assert scheduler.collected("plain") == [1, 2]
        assert sorted(scheduler.collected("both")) == [-2, -1, 1, 2]

    def test_every_source_is_drained_each_tick(self):
        graph = FlowGraph()
        graph.add(SourceOperator("a"))
        graph.add(SourceOperator("b"))
        graph.add(SinkOperator("out"))
        graph.connect("a", "out")
        graph.connect("b", "out")
        scheduler = TickScheduler(graph)
        scheduler.push("a", [1])
        scheduler.push("b", [2, 3])
        scheduler.run_tick()
        assert sorted(scheduler.collected("out")) == [1, 2, 3]
        scheduler.run_tick()
        assert sorted(scheduler.collected("out")) == [1, 2, 3]

    def test_push_waits_for_the_next_tick(self):
        scheduler = TickScheduler(linear_graph())
        scheduler.run_tick()
        scheduler.push("src", [2])
        assert scheduler.collected("out") == []
        scheduler.run_tick()
        assert scheduler.collected("out") == [4]

    def test_collected_is_a_copy(self):
        scheduler = TickScheduler(linear_graph())
        scheduler.push("src", [2])
        scheduler.run_tick()
        scheduler.collected("out").append("junk")
        assert scheduler.collected("out") == [4]

    def test_source_passes_through_items_on_an_edge(self):
        graph = FlowGraph()
        graph.add(SourceOperator("first"))
        graph.add(SourceOperator("second"))
        graph.add(SinkOperator("out"))
        graph.connect("first", "second")
        graph.connect("second", "out")
        scheduler = TickScheduler(graph)
        scheduler.push("first", ["x"])
        scheduler.push("second", ["y"])
        scheduler.run_tick()
        assert sorted(scheduler.collected("out")) == ["x", "y"]
        assert graph.operator("second").items_processed == 2

    def test_push_to_non_source_rejected(self):
        scheduler = TickScheduler(linear_graph())
        with pytest.raises(TypeError):
            scheduler.push("double", [1])

    def test_collected_from_non_sink_rejected(self):
        scheduler = TickScheduler(linear_graph())
        with pytest.raises(TypeError):
            scheduler.collected("evens")

    def test_operator_repr_names_kind_and_name(self):
        assert repr(MapOperator("double", lambda x: x)) == "MapOperator('double')"


class TestJoin:
    def test_hash_join_emits_matches(self):
        graph = FlowGraph()
        graph.add(SourceOperator("people"))
        graph.add(SourceOperator("orders"))
        graph.add(HashJoinOperator("join", left_key=lambda p: p[0], right_key=lambda o: o[0]))
        graph.add(SinkOperator("out"))
        graph.connect("people", "join", port="left")
        graph.connect("orders", "join", port="right")
        graph.connect("join", "out")
        scheduler = TickScheduler(graph)
        scheduler.push("people", [("alice", "US"), ("bob", "UK")])
        scheduler.push("orders", [("alice", "book"), ("alice", "pen"), ("carol", "hat")])
        scheduler.run_tick()
        matches = scheduler.collected("out")
        assert ("alice", ("alice", "US"), ("alice", "book")) in matches
        assert ("alice", ("alice", "US"), ("alice", "pen")) in matches
        assert len(matches) == 2

    def build_join(self, left_key=lambda item: item[0], right_key=lambda item: item[0]):
        graph = FlowGraph()
        graph.add(SourceOperator("l"))
        graph.add(SourceOperator("r"))
        graph.add(HashJoinOperator("join", left_key=left_key, right_key=right_key))
        graph.add(SinkOperator("out"))
        graph.connect("l", "join", port="left")
        graph.connect("r", "join", port="right")
        graph.connect("join", "out")
        return graph, TickScheduler(graph)

    def test_join_state_persists_across_ticks(self):
        _, scheduler = self.build_join()
        scheduler.push("l", [("k", 1)])
        scheduler.run_tick()
        assert scheduler.collected("out") == []
        scheduler.push("r", [("k", 2)])
        scheduler.run_tick()
        assert scheduler.collected("out") == [("k", ("k", 1), ("k", 2))]

    def test_join_emits_a_hashable_match_once(self):
        _, scheduler = self.build_join()
        scheduler.push("l", [("k", 1), ("k", 1)])
        scheduler.push("r", [("k", 2)])
        scheduler.run_tick()
        scheduler.push("l", [("k", 1)])
        scheduler.run_tick()
        assert scheduler.collected("out") == [("k", ("k", 1), ("k", 2))]

    def test_join_emits_a_dict_row_match_once_across_ticks(self):
        _, scheduler = self.build_join(
            left_key=lambda row: row["pid"], right_key=lambda row: row["pid"]
        )
        scheduler.push("l", [{"pid": 1}, {"pid": 1}])
        scheduler.push("r", [{"pid": 1, "item": "book"}])
        scheduler.run_tick()
        scheduler.push("l", [{"pid": 1}])
        scheduler.push("r", [{"item": "book", "pid": 1}])
        scheduler.run_tick()
        assert scheduler.collected("out") == [
            (1, {"pid": 1}, {"pid": 1, "item": "book"}),
        ]

    @pytest.mark.parametrize("left_value, right_value", [
        ([2, 3], {"x"}),
        ({"home": [1]}, ({"n": 1},)),
        ({2, 3}, [[1], [2]]),
    ], ids=["list-and-set", "dict-and-tuple-of-dicts", "set-and-nested-list"])
    def test_join_emits_a_collection_valued_match_once_across_ticks(
            self, left_value, right_value):
        _, scheduler = self.build_join(
            left_key=lambda row: row["pid"], right_key=lambda row: row["pid"]
        )
        scheduler.push("l", [{"pid": 1, "v": left_value}])
        scheduler.push("r", [{"pid": 1, "w": right_value}])
        scheduler.run_tick()
        scheduler.push("l", [{"pid": 1, "v": left_value}])
        scheduler.run_tick()
        assert scheduler.collected("out") == [
            (1, {"pid": 1, "v": left_value}, {"pid": 1, "w": right_value}),
        ]

    def test_join_rejects_unknown_port(self):
        join = HashJoinOperator("join", left_key=lambda x: x, right_key=lambda x: x)
        assert tuple(join.input_ports()) == ("left", "right")
        with pytest.raises(ValueError, match="no port 'in'"):
            join.process("in", [1])


class TestRecursion:
    def build_transitive_closure(self):
        """Recursive reachability: classic monotone fixpoint within one tick."""
        graph = FlowGraph("tc")
        graph.add(SourceOperator("edges"))
        graph.add(DistinctOperator("paths"))
        graph.add(
            HashJoinOperator(
                "extend",
                left_key=lambda path: path[1],
                right_key=lambda edge: edge[0],
            )
        )
        graph.add(MapOperator("compose", lambda match: (match[1][0], match[2][1])))
        graph.add(SinkOperator("out"))
        graph.connect("edges", "paths")
        graph.connect("paths", "extend", port="left")
        graph.connect("edges", "extend", port="right")
        graph.connect("extend", "compose")
        graph.connect("compose", "paths")
        graph.connect("paths", "out")
        return graph

    def test_transitive_closure_reaches_fixpoint(self):
        graph = self.build_transitive_closure()
        scheduler = TickScheduler(graph)
        scheduler.push("edges", [(1, 2), (2, 3), (3, 4)])
        result = scheduler.run_tick()
        paths = set(scheduler.collected("out"))
        assert (1, 4) in paths
        assert (1, 3) in paths
        assert (2, 4) in paths
        assert result.rounds > 1  # required iteration to reach the fixpoint

    def test_cycle_in_data_terminates(self):
        graph = self.build_transitive_closure()
        scheduler = TickScheduler(graph)
        scheduler.push("edges", [(1, 2), (2, 1)])
        scheduler.run_tick()
        paths = set(scheduler.collected("out"))
        assert (1, 1) in paths and (2, 2) in paths

    def test_closure_is_maintained_across_ticks(self):
        """Distinct and the join keep their state, so an edge pushed in a
        later tick extends the paths derived earlier."""
        graph = self.build_transitive_closure()
        scheduler = TickScheduler(graph)
        scheduler.push("edges", [(1, 2)])
        scheduler.run_tick()
        assert scheduler.collected("out") == [(1, 2)]
        scheduler.push("edges", [(2, 3)])
        scheduler.run_tick()
        assert sorted(scheduler.collected("out")) == [(1, 2), (1, 3), (2, 3)]

    def test_long_finite_cycle_stays_under_the_round_cap(self):
        graph = FlowGraph("bounded")
        graph.add(SourceOperator("src"))
        graph.add(MapOperator("inc", lambda x: x + 1))
        graph.add(FilterOperator("below", lambda x: x < 500))
        graph.add(SinkOperator("out"))
        graph.connect("src", "inc")
        graph.connect("inc", "below")
        graph.connect("below", "inc")
        graph.connect("below", "out")
        scheduler = TickScheduler(graph)
        scheduler.push("src", [0])
        result = scheduler.run_tick()
        assert scheduler.collected("out") == list(range(1, 500))
        assert result.rounds < MAX_ROUNDS

    def test_diverging_cycle_raises(self):
        """A cycle that derives a new item every round never reaches a
        fixpoint; the round cap turns the hang into an error."""
        graph = FlowGraph("counter")
        graph.add(SourceOperator("src"))
        graph.add(MapOperator("inc", lambda x: x + 1))
        graph.connect("src", "inc")
        graph.connect("inc", "inc")
        scheduler = TickScheduler(graph)
        scheduler.push("src", [0])
        with pytest.raises(RuntimeError, match=f"within {MAX_ROUNDS} rounds"):
            scheduler.run_tick()


class TestTickSemantics:
    def test_tick_counter_increments(self):
        graph = linear_graph()
        scheduler = TickScheduler(graph)
        scheduler.run_tick()
        scheduler.run_tick()
        assert scheduler.tick_count == 2
