"""Differential tests for the COVID tracker's demand-driven ``transitive`` query.

The query used to be a naive fixpoint over edge pairs; that definition is
kept here as the oracle, next to the sequential baseline's ``trace`` and the
compiler's semi-naive Hydroflow lowering.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.covid import SequentialCovidTracker, build_covid_program
from repro.compiler.lowering import evaluate_transitive_closure
from repro.core import SingleNodeInterpreter
from repro.core.state import MergeRowEffect
from repro.lattices import SetUnion

#: pid -> contacts.  Pids 8 and 9 never get a row, and any pid may be missing
#: from the keys, so contacts can name unknown people; a pid may list itself.
GRAPHS = st.dictionaries(
    st.integers(0, 7), st.frozensets(st.integers(0, 9), max_size=4), max_size=8)


def naive_transitive(view, start_pid=None):
    """The query as it was before it became demand-driven (the oracle)."""
    edges = set()
    for row in view.rows("people"):
        for contact in row["contacts"]:
            edges.add((row["pid"], contact))
    closure = set(edges)
    frontier = set(edges)
    while frontier:
        new_pairs = {
            (a, d)
            for (a, b) in frontier
            for (c, d) in edges
            if b == c and (a, d) not in closure
        }
        closure |= new_pairs
        frontier = new_pairs
    if start_pid is None:
        return closure
    return {pair for pair in closure if pair[0] == start_pid}


def lifted(graph):
    interp = SingleNodeInterpreter(build_covid_program())
    for pid, contacts in graph.items():
        interp.state.apply(MergeRowEffect("people", {"pid": pid, "contacts": SetUnion(contacts)}))
    return interp


def sequential(graph):
    tracker = SequentialCovidTracker()
    for pid, contacts in graph.items():
        tracker.add_person(pid)
        tracker.people[pid]["contacts"] = set(contacts)
    return tracker


@given(GRAPHS)
@settings(max_examples=300, deadline=None)
def test_transitive_matches_naive_sequential_and_semi_naive(graph):
    view = lifted(graph).view()
    tracker = sequential(graph)
    closure = view.query("transitive")

    assert closure == naive_transitive(view)
    edges = [(pid, contact) for pid, contacts in graph.items() for contact in contacts]
    assert closure == evaluate_transitive_closure(edges, "semi-naive")[0]

    for pid in range(10):
        from_pid = view.query("transitive", pid)
        assert from_pid == naive_transitive(view, pid)
        assert from_pid == {pair for pair in closure if pair[0] == pid}
        assert {dest for _, dest in from_pid if dest != pid} == tracker.trace(pid)


def test_cycles_self_loops_and_unknown_pids():
    graph = {1: {2}, 2: {3}, 3: {1, 9}, 4: {4}, 5: set(), 6: {7}}
    view = lifted(graph).view()
    assert view.query("transitive", 1) == {(1, 1), (1, 2), (1, 3), (1, 9)}
    assert view.query("transitive", 4) == {(4, 4)}
    assert view.query("transitive", 5) == set()
    assert view.query("transitive", 6) == {(6, 7)}
    assert view.query("transitive", 7) == set()     # named by 6, but has no row
    assert view.query("transitive", 42) == set()
    assert view.query("transitive") == naive_transitive(view)


def test_diagnosed_alert_list_is_unchanged():
    contacts = [(1, 2), (2, 3), (3, 1), (3, 4), (5, 6)]
    interp = SingleNodeInterpreter(build_covid_program())
    tracker = SequentialCovidTracker()
    for pid in range(1, 8):
        interp.call("add_person", pid=pid)
        tracker.add_person(pid)
    interp.run_tick()
    for a, b in contacts:
        interp.call("add_contact", id1=a, id2=b)
        tracker.add_contact(a, b)
    interp.run_tick()

    expected = sorted(
        {dest for _, dest in naive_transitive(interp.view(), 2) if dest != 2}, key=repr)
    alerted = interp.call_and_run("diagnosed", pid=2)

    assert alerted == expected == tracker.diagnosed(2) == [1, 3, 4]
    assert [send.payload for send in interp.drain_outbox()] == [
        {"pid": pid, "source": 2} for pid in expected]
