"""The compiled COVID tracker refines its single-node semantics.

The availability, consistency and target facets may change where and when a
handler runs, never what the program means.  A Hypothesis state machine
drives ``build_covid_program``, compiled by Hydrolysis onto three replicas
(link model off, three pids), through every handler, time passing, replica
crashes and recoveries with and without state loss, crashes and recoveries
of the consensus log's nodes (the leader's included), partitions between two
sites and crashes of the proxy.  The oracle is one ``SingleNodeInterpreter``.

Always:

* no more ``vaccinate`` calls succeed than there were vaccines, and no
  replica's count leaves ``[0, VACCINES]`` or flags more people vaccinated;
* every interpreter a replica ran applied log slots 0, 1, 2, ... each with
  the value the log chose for it, and no two logs chose apart for a slot;
* no replica holds a row or field value that no issued op could produce, and
  no ``trace`` reply names a pid the issued contacts do not reach.

After a heal (every node up, no partition, the proxy's retries and the
gossip given time): all replicas hold one state, the oracle's over every
acked op, some of the pending ones (each free op the state covers) and the
slots the replicas applied in log order, whose replies the oracle's match.
An acked free op counts as pending once the replica that served it has
lost its state since: the op may have died with it, unshipped.

Liveness after a leader crash ("every op issued after the heal is
answered") is not a rule: nothing calls ``campaign``, so a leader's crash
leaves its in-flight slots unchosen and every later slot unapplied.  It
lands with the leader election of ROADMAP item 3(a).
"""

import sys

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.apps.covid import build_covid_program
from repro.availability.proxy import ReplicaProxy
from repro.availability.replication import ReplicaNode
from repro.cluster import Network, NetworkConfig, Simulator, Topology
from repro.compiler import Hydrolysis
from repro.compiler.deployment import HydroDeployment
from repro.consistency.paxos import PaxosReplica
from repro.core import SingleNodeInterpreter

VACCINES = 2
PID = st.integers(0, 2)
COUNTRY = st.sampled_from(["fr", "nz"])
SITE = st.integers(0, 2)
KIND = st.sampled_from(["replica", "log", "proxy"])
PARAMS = {"add_person": ("pid", "country"), "add_contact": ("id1", "id2"),
          "diagnosed": ("pid",), "trace": ("pid",), "likelihood": ("pid",),
          "vaccinate": ("pid",)}
#: A burst of calls issued at one instant, person and vaccine calls twice as
#: likely: coordinated calls during an outage are what the faults bite on.
#: One burst in two writes one pid's plain ``country`` twice, which the
#: proxy's round robin sends to two replicas.
BURST = st.one_of(
    st.lists(st.one_of(
        *[st.tuples(st.just("add_person"), PID, COUNTRY)] * 2,
        st.tuples(st.just("add_contact"), PID, PID),
        *(st.tuples(st.just(handler), PID)
          for handler in ("diagnosed", "trace", "likelihood", "vaccinate", "vaccinate")),
    ), min_size=1, max_size=4),
    PID.map(lambda pid: [("add_person", pid, "fr"), ("add_person", pid, "nz")]),
)
#: The proxy's last attempt starts 3 x 30 ticks after the call; then a
#: ``learn`` that timed out twice (2 x 25) and twelve gossip rounds.
HEAL_HORIZON = 3 * 30.0 + 2 * 25.0 + 12 * 10.0

PROGRAM = build_covid_program(vaccine_count=VACCINES)
TOPOLOGY = Topology()
for _index in range(3):
    TOPOLOGY.place(f"node-{_index}", az=f"az-{_index}", vm=f"vm-{_index}")
PLAN = Hydrolysis().compile(PROGRAM, TOPOLOGY, [f"node-{index}" for index in range(3)])
FREE_WRITES = {"add_person", "add_contact", "diagnosed"}


def contents(state):
    """What a state holds, row order aside."""
    return ({name: dict(table.rows) for name, table in state.tables.items()},
            dict(state.vars))


def reachable(edges, pid):
    seen, frontier = set(), [pid]
    while frontier:
        for other in edges.get(frontier.pop(), ()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


class DeploymentRefinement(RuleBasedStateMachine):

    @initialize(seed=st.integers(0, 20))
    def deploy(self, seed):
        self.simulator = Simulator(seed=seed)
        self.network = Network(self.simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
        self.deployment = Hydrolysis().deploy(PROGRAM, PLAN, self.simulator, self.network)
        assert len(self.deployment.replicas) == 3
        #: (handler, args, token) of every invocation, in issue order.
        self.ops = []
        #: replica id -> how many ops had been issued when it last lost its state.
        self.lost_at = {}
        #: (interpreter, slot, handler, args) of every ordered apply not ignored.
        self.applied = []
        for replica in self.deployment.replicas.values():
            self._record_ordered(replica)

    def _record_ordered(self, replica):
        apply_ordered = replica.apply_ordered

        def recording(slot, handler, args):
            interpreter = replica.interpreter
            result = apply_ordered(slot, handler, args)
            if result is not None:
                self.applied.append((interpreter, slot, handler, args))
            return result

        replica.apply_ordered = recording

    def site(self, index):
        return self.deployment.replica_ids[index]

    def node(self, kind, site):
        """The replica, the log node or (whatever the site) the proxy."""
        if kind == "proxy":
            return self.deployment.proxy
        nodes = self.deployment.replicas if kind == "replica" else self.deployment.consensus
        return nodes[self.site(site)]

    def recover(self, node, lose_state=False):
        if node.alive:
            return
        if lose_state:
            self.lost_at[node.node_id] = len(self.ops)
        node.recover(lose_state=lose_state)

    # -- rules ---------------------------------------------------------------------------

    @rule(calls=BURST, ticks=st.sampled_from([0.0, 1.0, 5.0]))
    def invoke(self, calls, ticks):
        for handler, *values in calls:
            args = dict(zip(PARAMS[handler], values))
            self.ops.append((handler, args, self.deployment.invoke(handler, **args)))
        self.deployment.settle(ticks)

    @rule(ticks=st.sampled_from([10.0, 25.0, 60.0]))
    def run(self, ticks):
        self.deployment.settle(ticks)

    @rule(kind=KIND, site=SITE)
    def crash(self, kind, site):
        self.node(kind, site).crash()

    @rule(kind=KIND, site=SITE, lose_state=st.booleans())
    def recover_one(self, kind, site, lose_state):
        self.recover(self.node(kind, site), lose_state and kind == "replica")

    @rule(kind=KIND, site=SITE, calls=BURST, ticks=st.sampled_from([5.0, 10.0, 25.0]),
          lose_state=st.booleans())
    def outage(self, kind, site, calls, ticks, lose_state):
        """Crash a node, invoke handlers while it is down, recover it."""
        self.crash(kind, site)
        self.invoke(calls, ticks)
        self.recover_one(kind, site, lose_state)

    @rule(near=SITE, far=SITE, oneway=st.booleans())
    def partition(self, near, far, oneway):
        if near != far:
            self.network.partition(*([self.site(index), f"{self.site(index)}-log"]
                                     for index in (near, far)), oneway=oneway)

    @rule()
    def heal_partitions(self):
        self.network.heal_all()

    @rule(lose_state=st.booleans())
    def heal(self, lose_state):
        deployment = self.deployment
        self.network.heal_all()
        for node in [*deployment.replicas.values(), *deployment.consensus.values(),
                     deployment.proxy]:
            self.recover(node, lose_state and isinstance(node, ReplicaNode))
        deployment.settle(HEAL_HORIZON)
        self.check_refinement()

    def teardown(self):
        if hasattr(self, "deployment"):
            self.heal(lose_state=False)

    # -- always ------------------------------------------------------------------------

    def replies(self, handler):
        for name, args, token in self.ops:
            reply = self.deployment.response(token)
            if name == handler and reply is not None:
                yield args, reply

    @invariant()
    def no_vaccine_is_oversold(self):
        sold = sum(reply["status"] == "ok" for _, reply in self.replies("vaccinate"))
        assert sold <= VACCINES
        for replica in self.deployment.replicas.values():
            state = replica.interpreter.state
            vaccinated = [pid for pid, row in state.table("people").rows.items()
                          if row["vaccinated"].value]
            assert 0 <= state.var("vaccine_count") <= VACCINES and len(vaccinated) <= VACCINES

    @invariant()
    def applied_slots_are_a_prefix_of_the_chosen_log(self):
        chosen = {}
        for log in self.deployment.consensus.values():
            for slot, value in log.chosen.items():
                assert chosen.setdefault(slot, value) is value or chosen[slot] == value
        slots = {}
        for interpreter, slot, handler, args in self.applied:
            slots.setdefault(id(interpreter), []).append(slot)
            assert (handler, args) == (chosen[slot]["handler"], chosen[slot]["args"])
        assert all(seen == list(range(len(seen))) for seen in slots.values())

    @invariant()
    def every_row_is_one_some_issued_op_could_produce(self):
        countries, edges, diagnosed, vaccinated = {}, {}, set(), set()
        for handler, args, _ in self.ops:
            if handler == "add_person":
                countries.setdefault(args["pid"], {""}).add(args["country"])
            elif handler == "add_contact":
                edges.setdefault(args["id1"], set()).add(args["id2"])
                edges.setdefault(args["id2"], set()).add(args["id1"])
            elif handler == "diagnosed":
                diagnosed.add(args["pid"])
            elif handler == "vaccinate":
                vaccinated.add(args["pid"])
        pids = set(countries) | set(edges) | diagnosed | vaccinated
        for replica in self.deployment.replicas.values():
            for pid, row in replica.interpreter.state.table("people").rows.items():
                assert pid in pids
                assert row["country"] in countries.get(pid, {""})
                assert set(row["contacts"]) <= edges.get(pid, set())
                assert pid in diagnosed or not row["covid"].value
                assert pid in vaccinated or not row["vaccinated"].value
        for args, reply in self.replies("trace"):
            assert set(reply["value"]) <= reachable(edges, args["pid"])

    # -- after a heal ------------------------------------------------------------------

    def covered(self, handler, args, state):
        """Whether ``state`` already holds everything the free op writes."""
        probe = SingleNodeInterpreter(PROGRAM)
        probe.call_and_run(handler, **args)
        joined = state.snapshot()
        joined.merge_entries(probe.state.export())
        return contents(joined) == contents(state)

    def check_refinement(self):
        deployment = self.deployment
        replicas = list(deployment.replicas.values())
        held = contents(replicas[0].interpreter.state)
        assert all(contents(replica.interpreter.state) == held for replica in replicas)
        assert len({replica.ordered_upto for replica in replicas}) == 1

        oracle = SingleNodeInterpreter(PROGRAM)
        final = replicas[0].interpreter.state
        for index, (handler, args, token) in enumerate(self.ops):
            if handler not in FREE_WRITES:
                continue
            reply = deployment.response(token)
            acked = reply is not None and index >= self.lost_at.get(reply["replica"], 0)
            if acked or self.covered(handler, args, final):
                oracle.call(handler, **args)
        oracle.run_tick()
        chosen = {}
        for log in deployment.consensus.values():
            chosen.update(log.chosen)
        for slot in range(replicas[0].ordered_upto + 1):
            value = chosen[slot]
            request = oracle.call(value["handler"], **value["args"])
            status = "rejected" if request in oracle.run_tick().rejected else "ok"
            assert deployment.response(value["token"])["status"] == status
        assert contents(oracle.state) == held


SETTINGS = settings(max_examples=80, stateful_step_count=20, deadline=None,
                    derandomize=True)
REACH = (PaxosReplica.learn, ReplicaNode.reset_state, HydroDeployment._catch_up,
         ReplicaProxy.crash)


def test_the_deployment_refines_the_single_node_interpreter():
    calls = dict.fromkeys((function.__code__ for function in REACH), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        run_state_machine_as_test(DeploymentRefinement, settings=SETTINGS)
    finally:
        sys.setprofile(None)
    assert {function.__qualname__: calls[function.__code__] for function in REACH
            if not calls[function.__code__]} == {}
