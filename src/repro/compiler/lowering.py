"""Lowering HydroLogic query plans to Hydroflow operator graphs (§8).

Query plans are small, non-recursive relational-algebra trees (scan /
select / project / join / distinct).  ``lower_query_plan`` translates a
plan into an acyclic :class:`~repro.hydroflow.graph.FlowGraph`.  Recursion
is lowered only by ``lower_transitive_closure``: its two ready-made cyclic
lowerings of the paper's transitive-closure query — naive and semi-naive —
leave the fixpoint to the tick scheduler and support the E10 optimizer
ablation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional, Sequence

from repro.hydroflow import (
    DistinctOperator,
    FilterOperator,
    FlowGraph,
    HashJoinOperator,
    MapOperator,
    SinkOperator,
    SourceOperator,
    TickScheduler,
)


# -- query plan nodes ---------------------------------------------------------------


@dataclass(frozen=True)
class QueryPlan:
    """A relational-algebra plan node.

    kinds: ``scan`` (leaf over a named source), ``select`` (predicate),
    ``project`` (mapping function), ``join`` (two children with key
    functions) and ``distinct``.  There is no recursive kind; recursion is
    lowered only by :func:`lower_transitive_closure`.
    """

    kind: str
    source: str = ""
    predicate: Optional[Callable[[Any], bool]] = None
    projection: Optional[Callable[[Any], Any]] = None
    left: Optional["QueryPlan"] = None
    right: Optional["QueryPlan"] = None
    left_key: Optional[Callable[[Any], Hashable]] = None
    right_key: Optional[Callable[[Any], Hashable]] = None
    child: Optional["QueryPlan"] = None

    # -- constructors ----------------------------------------------------------------

    @staticmethod
    def scan(source: str) -> "QueryPlan":
        return QueryPlan("scan", source=source)

    @staticmethod
    def select(child: "QueryPlan", predicate: Callable[[Any], bool]) -> "QueryPlan":
        return QueryPlan("select", predicate=predicate, child=child)

    @staticmethod
    def project(child: "QueryPlan", projection: Callable[[Any], Any]) -> "QueryPlan":
        return QueryPlan("project", projection=projection, child=child)

    @staticmethod
    def join(left: "QueryPlan", right: "QueryPlan",
             left_key: Callable[[Any], Hashable],
             right_key: Callable[[Any], Hashable]) -> "QueryPlan":
        return QueryPlan("join", left=left, right=right, left_key=left_key, right_key=right_key)

    @staticmethod
    def distinct(child: "QueryPlan") -> "QueryPlan":
        return QueryPlan("distinct", child=child)

    def children(self) -> list["QueryPlan"]:
        return [node for node in (self.child, self.left, self.right) if node is not None]

    def sources(self) -> set[str]:
        if self.kind == "scan":
            return {self.source}
        found: set[str] = set()
        for child in self.children():
            found |= child.sources()
        return found


# -- lowering -------------------------------------------------------------------------


def lower_query_plan(plan: QueryPlan, graph_name: str = "query") -> tuple[FlowGraph, str]:
    """Lower a (non-recursive) query plan to a Hydroflow graph.

    Returns the graph and the name of its sink operator.  Every distinct
    scan source becomes a :class:`SourceOperator` named after the source, so
    callers push base data by source name.
    """
    graph = FlowGraph(graph_name)
    counter = itertools.count()
    source_ops: dict[str, str] = {}

    def ensure_source(source: str) -> str:
        if source not in source_ops:
            graph.add(SourceOperator(source))
            source_ops[source] = source
        return source_ops[source]

    def build(node: QueryPlan) -> str:
        index = next(counter)
        if node.kind == "scan":
            return ensure_source(node.source)
        if node.kind == "select":
            upstream = build(node.child)
            name = f"select_{index}"
            graph.add(FilterOperator(name, node.predicate))
            graph.connect(upstream, name)
            return name
        if node.kind == "project":
            upstream = build(node.child)
            name = f"project_{index}"
            graph.add(MapOperator(name, node.projection))
            graph.connect(upstream, name)
            return name
        if node.kind == "distinct":
            upstream = build(node.child)
            name = f"distinct_{index}"
            graph.add(DistinctOperator(name))
            graph.connect(upstream, name)
            return name
        if node.kind == "join":
            left = build(node.left)
            right = build(node.right)
            name = f"join_{index}"
            graph.add(HashJoinOperator(name, node.left_key, node.right_key))
            graph.connect(left, name, port="left")
            graph.connect(right, name, port="right")
            return name
        raise ValueError(f"cannot lower plan node of kind {node.kind!r}")

    output = build(plan)
    graph.add(SinkOperator("result"))
    graph.connect(output, "result")
    return graph, "result"


# -- transitive closure lowerings (naive vs semi-naive) ----------------------------------


def lower_transitive_closure(strategy: str = "semi-naive") -> tuple[FlowGraph, str]:
    """Build the Hydroflow graph for the paper's transitive-closure query.

    ``strategy`` selects the evaluation plan:

    * ``"semi-naive"`` — only *newly discovered* paths (the output of the
      distinct) re-enter the join, so each derivation is made once.  This
      is the plan the optimizer chooses.
    * ``"naive"`` — every known path re-enters the join on every round (the
      textbook naive fixpoint), implemented by re-injecting the full path
      set each round without novelty filtering on the loop edge.
    """
    if strategy not in ("semi-naive", "naive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    graph = FlowGraph(f"transitive_closure_{strategy}")
    graph.add(SourceOperator("edges"))
    graph.add(DistinctOperator("paths"))
    graph.add(HashJoinOperator(
        "extend",
        left_key=lambda path: path[1],
        right_key=lambda edge: edge[0],
    ))
    graph.add(MapOperator("compose", lambda match: (match[1][0], match[2][1])))
    graph.add(SinkOperator("result"))
    graph.connect("edges", "paths")
    graph.connect("edges", "extend", port="right")
    graph.connect("extend", "compose")
    graph.connect("compose", "paths")
    graph.connect("paths", "result")
    if strategy == "semi-naive":
        # Only the delta (newly discovered paths emitted by distinct) feeds the join.
        graph.connect("paths", "extend", port="left")
    else:
        # Naive: replay the full path set into the join every round via an
        # identity map that bypasses the novelty filter.
        graph.add(MapOperator("replay", lambda path: path))
        graph.connect("paths", "replay")
        graph.connect("replay", "extend", port="left")
        graph.connect("compose", "replay")
    return graph, "result"


def evaluate_transitive_closure(edges: Sequence[tuple], strategy: str = "semi-naive") -> tuple[set, dict]:
    """Run a TC evaluation and return (paths, stats) for benchmarking."""
    graph, sink = lower_transitive_closure(strategy)
    scheduler = TickScheduler(graph)
    scheduler.push("edges", list(edges))
    result = scheduler.run_tick()
    join_items = graph.operator("extend").items_processed
    return set(scheduler.collected(sink)), {
        "rounds": result.rounds,
        "items_moved": result.items_moved,
        "join_inputs": join_items,
    }
