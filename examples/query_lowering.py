"""Query lowering and optimization (§8, E10): semi-naive vs naive recursion.

The paper's pipeline lowers HydroLogic queries to Hydroflow, a single-node
dataflow runtime.  This script carries a minimal Hydroflow — map, distinct,
a symmetric hash join and a sink, run to fixpoint by a one-queue
scheduler — and lowers the running example's transitive-closure query to
it twice:

* naive: every known path re-enters the join on every round;
* semi-naive: only newly derived paths (distinct's output) re-enter it.

Both reach the same closure; semi-naive moves fewer items and feeds the
join fewer inputs.  The counts are deterministic and pinned in
``EXPECTED``.  The second half rewrites a select above a join into a
select below it (predicate pushdown) and compares the estimated costs.

The deployed COVID tracker does not run this lowering: its ``trace`` is a
search from one person (``repro.apps.covid``).  A maintained closure view
holds every reachable pair, so its memory grows with the square of the
number of people.

Run with:  python examples/query_lowering.py
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

# -- a minimal Hydroflow -------------------------------------------------------------


class Map:
    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func

    def process(self, port: str, batch: list) -> list:
        return [self.func(item) for item in batch]


class Distinct:
    """A grow-only set: emits each item the first time it arrives."""

    def __init__(self) -> None:
        self.seen: set = set()

    def process(self, port: str, batch: list) -> list:
        fresh = []
        for item in batch:
            if item not in self.seen:
                self.seen.add(item)
                fresh.append(item)
        return fresh


class HashJoin:
    """Symmetric hash join over ``left`` and ``right`` ports.

    Each arriving item probes the other side's table at once, so recursion
    through the join makes progress within a tick; each
    ``(key, left, right)`` match is emitted once.
    """

    def __init__(self, left_key: Callable[[Any], Hashable],
                 right_key: Callable[[Any], Hashable]) -> None:
        self.keys = {"left": left_key, "right": right_key}
        self.tables: dict[str, dict] = {"left": {}, "right": {}}
        self.emitted: set = set()
        self.inputs = 0

    def process(self, port: str, batch: list) -> list:
        self.inputs += len(batch)
        own = self.tables[port]
        other = self.tables["right" if port == "left" else "left"]
        output = []
        for item in batch:
            key = self.keys[port](item)
            own.setdefault(key, []).append(item)
            for match in other.get(key, ()):
                triple = (key, item, match) if port == "left" else (key, match, item)
                if triple not in self.emitted:
                    self.emitted.add(triple)
                    output.append(triple)
        return output


class Sink:
    def __init__(self) -> None:
        self.collected: list = []

    def process(self, port: str, batch: list) -> list:
        self.collected.extend(batch)
        return []


class Flow:
    """Named operators and the edges between an output and an input port."""

    def __init__(self, **operators: Any) -> None:
        self.operators = operators
        self.downstream: dict[str, list[tuple[str, str]]] = {}

    def connect(self, source: str, target: str, port: str = "in") -> None:
        self.downstream.setdefault(source, []).append((target, port))

    def run_tick(self, source: str, items: list) -> tuple[int, int]:
        """Push ``items`` out of ``source`` and run to fixpoint.

        A port joins the ready queue when its buffer turns non-empty; a
        round dispatches the ports ready at its start, each with its whole
        buffer.  Returns (rounds, items moved)."""
        buffers: dict[tuple[str, str], list] = {}
        ready: deque[tuple[str, str]] = deque()

        def emit(name: str, output: list) -> None:
            if not output:
                return
            for port in self.downstream.get(name, ()):
                buffer = buffers.setdefault(port, [])
                if not buffer:
                    ready.append(port)
                buffer.extend(output)

        emit(source, items)
        rounds = moved = 0
        while ready:
            rounds += 1
            for _ in range(len(ready)):
                name, port = ready.popleft()
                batch = buffers.pop((name, port))
                moved += len(batch)
                emit(name, self.operators[name].process(port, batch))
        return rounds, moved


# -- lowering the transitive closure ---------------------------------------------------


def closure_flow(strategy: str) -> tuple[Flow, HashJoin, Sink]:
    """Lower the closure with ``strategy``: edges enter at ``edges``, and
    every path reaches the returned sink once.  The flow keeps its state,
    so edges pushed in a later tick extend the paths already derived."""
    if strategy not in ("naive", "semi-naive"):
        raise ValueError(f"unknown recursion strategy {strategy!r}")
    join = HashJoin(left_key=lambda path: path[1], right_key=lambda edge: edge[0])
    sink = Sink()
    flow = Flow(paths=Distinct(), extend=join, result=sink,
                compose=Map(lambda match: (match[1][0], match[2][1])))
    flow.connect("edges", "paths")
    flow.connect("edges", "extend", port="right")
    flow.connect("extend", "compose")
    flow.connect("compose", "paths")
    flow.connect("paths", "result")
    if strategy == "semi-naive":
        flow.connect("paths", "extend", port="left")
    else:
        # Naive: an identity map replays every path, old or new, into the join.
        flow.operators["replay"] = Map(lambda path: path)
        flow.connect("paths", "replay")
        flow.connect("replay", "extend", port="left")
        flow.connect("compose", "replay")
    return flow, join, sink


def transitive_closure(edges: list[tuple], strategy: str) -> tuple[set, int, int, int]:
    """Run the ``strategy`` closure one tick, and return (paths, fixpoint
    rounds, items moved, join inputs)."""
    flow, join, sink = closure_flow(strategy)
    rounds, moved = flow.run_tick("edges", edges)
    return set(sink.collected), rounds, moved, join.inputs


def random_graph(nodes: int, edges: int, seed: int = 13) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    out = set()
    while len(out) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            out.add((a, b))
    return sorted(out)


#: (nodes, edges) -> strategy -> (paths, fixpoint rounds, items moved, join
#: inputs).  A scheduler change that moves one of these has changed the
#: evaluation, not just its speed.
EXPECTED = {
    (30, 60): {"naive": (554, 30, 6_022, 1_674), "semi-naive": (554, 28, 3_348, 614)},
    (80, 160): {"naive": (4_365, 36, 50_187, 13_718),
                "semi-naive": (4_365, 34, 27_436, 4_525)},
    (150, 300): {"naive": (12_281, 63, 132_727, 36_402),
                 "semi-naive": (12_281, 61, 72_804, 12_581)},
}


# -- predicate pushdown ----------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """A relational-algebra node: ``scan`` a table, ``select`` over one
    input or ``join`` two."""

    kind: str
    source: str = ""
    predicate: Optional[Callable[[Any], bool]] = None
    inputs: tuple["Plan", ...] = ()


def push_down(plan: Plan, side: int) -> Plan:
    """Rewrite ``select(join(l, r))`` to apply the select to input ``side``
    of the join, the only one its predicate reads."""
    if plan.kind != "select" or plan.inputs[0].kind != "join":
        return plan
    inputs = list(plan.inputs[0].inputs)
    inputs[side] = Plan("select", predicate=plan.predicate, inputs=(inputs[side],))
    return Plan("join", inputs=tuple(inputs))


def estimate_cost(plan: Plan, cardinalities: dict[str, int],
                  selectivity: float = 0.1) -> tuple[float, float]:
    """(rows processed, rows out): every operator touches each input row
    once, and a join also pays for its output."""
    if plan.kind == "scan":
        rows = float(cardinalities[plan.source])
        return rows, rows
    children = [estimate_cost(child, cardinalities, selectivity) for child in plan.inputs]
    work = sum(cost + rows for cost, rows in children)
    if plan.kind == "select":
        return work, children[0][1] * selectivity
    output = children[0][1] * children[1][1] * selectivity
    return work + output, output


def main() -> None:
    for (nodes, edges), expected in sorted(EXPECTED.items()):
        graph = random_graph(nodes, edges)
        naive = transitive_closure(graph, "naive")
        semi = transitive_closure(graph, "semi-naive")
        assert semi[0] == naive[0]
        assert {"naive": (len(naive[0]), *naive[1:]),
                "semi-naive": (len(semi[0]), *semi[1:])} == expected
        print(f"transitive closure, {nodes} nodes / {edges} edges: {len(semi[0]):,} paths")
        for name, (_, rounds, moved, join_inputs) in (("naive", naive), ("semi-naive", semi)):
            print(f"  {name:<10}  join inputs {join_inputs:>6,}  items moved {moved:>7,}"
                  f"  rounds {rounds}")

    country_is_us = lambda row: row["country"] == "US"
    plan = Plan("select", predicate=country_is_us,
                inputs=(Plan("join", inputs=(Plan("scan", "people"), Plan("scan", "contacts"))),))
    cardinalities = {"people": 100_000, "contacts": 500_000}
    before, _ = estimate_cost(plan, cardinalities)
    after, _ = estimate_cost(push_down(plan, side=0), cardinalities)
    assert after < before
    print("predicate pushdown on people ⋈ contacts (estimated rows touched):")
    print(f"  select above join  {before:>14,.0f}")
    print(f"  select below join  {after:>14,.0f}")


if __name__ == "__main__":
    main()
