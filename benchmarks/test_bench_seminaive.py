"""E10 — query lowering and optimization (§8): semi-naive vs naive recursion.

Regenerates the optimizer ablation: the transitive-closure query of the
running example evaluated naively vs semi-naively on the Hydroflow runtime,
reporting join-input counts, items moved and wall time as the contact graph
grows — plus the predicate-pushdown rewrite's estimated-cost improvement.
"""

import random

import pytest

from conftest import print_rows
from repro.compiler import QueryPlan, optimize_plan
from repro.compiler.lowering import evaluate_transitive_closure
from repro.compiler.optimizer import PushdownHint, estimate_plan_cost


def random_graph(nodes: int, edges: int, seed: int = 13):
    rng = random.Random(seed)
    out = set()
    while len(out) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            out.add((a, b))
    return sorted(out)


# (paths, fixpoint rounds, items moved, join inputs) per strategy.  The
# counts are deterministic: a scheduler change that moves one has changed
# the evaluation, not just its speed.
EXPECTED = {
    (30, 60): {"naive": (554, 30, 6_022, 1_674), "semi-naive": (554, 28, 3_348, 614)},
    (80, 160): {"naive": (4_365, 36, 50_187, 13_718),
                "semi-naive": (4_365, 34, 27_436, 4_525)},
    (150, 300): {"naive": (12_281, 63, 132_727, 36_402),
                 "semi-naive": (12_281, 61, 72_804, 12_581)},
}


def counts(paths, stats):
    return len(paths), stats["rounds"], stats["items_moved"], stats["join_inputs"]


@pytest.mark.parametrize("nodes,edges", sorted(EXPECTED))
def test_semi_naive_vs_naive_transitive_closure(benchmark, nodes, edges):
    graph = random_graph(nodes, edges)
    semi_paths, semi_stats = benchmark.pedantic(
        evaluate_transitive_closure, args=(graph, "semi-naive"), rounds=1, iterations=1
    )
    naive_paths, naive_stats = evaluate_transitive_closure(graph, "naive")
    assert semi_paths == naive_paths
    print_rows(
        f"E10: transitive closure on {nodes} nodes / {edges} edges "
        f"({len(semi_paths)} paths)",
        ["strategy", "join inputs", "items moved", "fixpoint rounds"],
        [
            ["naive re-derivation", naive_stats["join_inputs"], naive_stats["items_moved"],
             naive_stats["rounds"]],
            ["semi-naive (optimizer choice)", semi_stats["join_inputs"],
             semi_stats["items_moved"], semi_stats["rounds"]],
        ],
    )
    assert semi_stats["join_inputs"] <= naive_stats["join_inputs"]
    assert semi_stats["items_moved"] < naive_stats["items_moved"]
    assert {"naive": counts(naive_paths, naive_stats),
            "semi-naive": counts(semi_paths, semi_stats)} == EXPECTED[(nodes, edges)]


def test_predicate_pushdown_cost_reduction(benchmark):
    predicate = lambda row: row["country"] == "US"
    plan = QueryPlan.select(
        QueryPlan.join(
            QueryPlan.scan("people"), QueryPlan.scan("contacts"),
            left_key=lambda p: p["pid"], right_key=lambda c: c["pid"],
        ),
        predicate,
    )
    cardinalities = {"people": 100_000, "contacts": 500_000}

    def run():
        optimized, report = optimize_plan(
            plan, hints={id(predicate): PushdownHint(predicate, "left")}
        )
        return optimized, report

    optimized, report = benchmark(run)
    before = estimate_plan_cost(plan, cardinalities)
    after = estimate_plan_cost(optimized, cardinalities)
    print_rows(
        "E10: predicate pushdown on people ⋈ contacts",
        ["plan", "estimated cost (rows touched)"],
        [["select above join", f"{before:,.0f}"], ["select pushed below join", f"{after:,.0f}"]],
    )
    assert report.fired("predicate-pushdown-join")
    assert after < before
