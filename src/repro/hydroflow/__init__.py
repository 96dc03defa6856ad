"""Hydroflow: a single-node, tick-based dataflow runtime.

This is the Python counterpart of the paper's Rust Hydroflow runtime
(§2.3, §8), cut to what the Hydrolysis lowering emits
(:mod:`repro.compiler.lowering`): sources, map, filter, distinct, a
symmetric hash join and sinks.  Distinct and the join keep their state
across ticks, so a lowered query is a maintained view.

Each *tick* drains the inbound items pushed to the sources and runs the
operator graph to fixpoint.  Every operator is monotone, so recursion
through a cycle terminates once nothing new is derived, and within a tick
there are no race conditions.
"""

from repro.hydroflow.graph import FlowGraph, Port
from repro.hydroflow.operators import (
    Operator,
    SourceOperator,
    MapOperator,
    FilterOperator,
    DistinctOperator,
    HashJoinOperator,
    SinkOperator,
)
from repro.hydroflow.scheduler import TickResult, TickScheduler

__all__ = [
    "FlowGraph",
    "Port",
    "Operator",
    "SourceOperator",
    "MapOperator",
    "FilterOperator",
    "DistinctOperator",
    "HashJoinOperator",
    "SinkOperator",
    "TickScheduler",
    "TickResult",
]
