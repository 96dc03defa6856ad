"""CALM verdicts checked by execution, for the covid program.

Both directions of the compiler's coordination decisions get evidence:
a handler it sends through the consensus log has a concrete witness that
two uncoordinated replicas break its spec, and every handler it marks
``NONE`` is confluent — replicas that apply any permutation, with
duplicates, of the same batch and then merge hold equal state and answer
every query equally.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.covid import build_covid_program
from repro.cluster import Topology
from repro.compiler import Hydrolysis
from repro.consistency import CoordinationMechanism
from repro.core import (
    ConsistencyLevel,
    ConsistencySpec,
    EffectKind,
    EffectSpec,
    HydroProgram,
    SingleNodeInterpreter,
    analyze_program,
)

PIDS = st.integers(min_value=0, max_value=4)
#: State-changing calls of the covid handlers the compiler marks ``NONE``;
#: ``""`` is ``Person.country``'s default.
UPDATES = st.one_of(
    st.builds(lambda pid, country: ("add_person", {"pid": pid, "country": country}),
              PIDS, st.sampled_from(["", "US", "DE"])),
    st.builds(lambda id1, id2: ("add_contact", {"id1": id1, "id2": id2}), PIDS, PIDS),
    st.builds(lambda pid: ("diagnosed", {"pid": pid}), PIDS),
)
#: The read-only ones, asked of every pid after the merge.
READS = ("trace", "likelihood")


def mechanisms(program):
    return {name: analysis.mechanism
            for name, analysis in analyze_program(program).handlers.items()}


def test_vaccinate_without_the_log_gives_one_dose_twice():
    program = build_covid_program(vaccine_count=1)
    assert mechanisms(program)["vaccinate"] is CoordinationMechanism.CONSENSUS_LOG
    replicas = [SingleNodeInterpreter(program, node_id=f"r{index}") for index in range(2)]
    for replica, pid in zip(replicas, (1, 2)):
        replica.call_and_run("add_person", pid=1, country="US")
        replica.call_and_run("add_person", pid=2, country="DE")
        assert replica.call_and_run("vaccinate", pid=pid) == "OK"  # each accepts
    left, right = (replica.state for replica in replicas)
    left.merge_from(right)
    right.merge_from(left)
    for state in (left, right):
        vaccinated = [pid for pid in (1, 2)
                      if state.table("people").get(pid)["vaccinated"]]
        assert vaccinated == [1, 2]  # two doses given out of an inventory of one


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(UPDATES, min_size=1, max_size=10), data=st.data())
def test_every_coordination_free_handler_is_confluent(batch, data):
    program = build_covid_program()
    free = {name for name, mechanism in mechanisms(program).items()
            if mechanism is CoordinationMechanism.NONE}
    assert free == {"add_person", "add_contact", "diagnosed"} | set(READS)

    replicas = []
    for index in range(2):
        again = data.draw(st.lists(st.sampled_from(batch), max_size=4), label="duplicates")
        order = data.draw(st.permutations(batch + again), label=f"order r{index}")
        replica = SingleNodeInterpreter(program, node_id=f"r{index}")
        for handler, args in order:
            replica.call(handler, **args)
            if data.draw(st.booleans(), label="end the tick"):
                replica.run_tick()
        replica.run_until_quiescent()
        replicas.append(replica)
    left, right = replicas
    left.state.merge_from(right.state)
    right.state.merge_from(left.state)

    assert left.state.table("people").rows == right.state.table("people").rows
    for pid in sorted(left.state.table("people").keys()):
        for handler in READS:
            assert (left.call_and_run(handler, pid=pid)
                    == right.call_and_run(handler, pid=pid)), (handler, pid)


def sequential_register():
    """A non-monotone handler that asks for sequential consistency and
    declares no invariant."""
    program = HydroProgram("register")
    program.add_var("cell", initial=0)

    def set_cell(ctx, value):
        ctx.assign_var("cell", value)
        ctx.respond("OK")

    program.add_handler(
        "set_cell",
        set_cell,
        params=["value"],
        effects=[EffectSpec(EffectKind.ASSIGN, "cell")],
        reads=["cell"],
        consistency=ConsistencySpec(ConsistencyLevel.SEQUENTIAL),
    )
    return program


def test_a_non_monotone_handler_without_invariants_goes_through_the_log():
    program = sequential_register()
    analysis = analyze_program(program).handlers["set_cell"]
    assert analysis.mechanism is CoordinationMechanism.CONSENSUS_LOG
    assert "non-monotone effects are ordered across replicas" in analysis.reasons

    topology = Topology()
    nodes = [f"node-{az}" for az in range(3)]
    for az, node_id in enumerate(nodes):
        topology.place(node_id, az=f"az-{az}", vm=f"vm-{az}")
    compiler = Hydrolysis()
    plan = compiler.compile(program, topology, nodes)
    assert plan.coordinated_endpoints() == ["set_cell"]
    deployment = compiler.deploy(program, plan)
    token = deployment.invoke("set_cell", value=7)
    deployment.settle()
    assert deployment.metrics.counter("requests.coordinated") == 1
    assert deployment.metrics.counter("requests.coordination_free") == 0
    assert deployment.response(token)["status"] == "ok"
    assert deployment.consensus_leader.chosen[0]["handler"] == "set_cell"
    assert {replica.interpreter.state.var("cell")
            for replica in deployment.replicas.values()} == {7}
