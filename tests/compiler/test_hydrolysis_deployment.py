"""End-to-end tests for the Hydrolysis compiler and simulated deployment
(E1/E2/E6's correctness halves)."""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.collab_edit import build_collab_program
from repro.apps.covid import build_covid_program
from repro.apps.shopping_cart import build_cart_program
from repro.availability.replication import (
    EXTERNAL_SENDS,
    FRESH_ENTRIES,
    LOGGED_CHANGES,
    ORDERED_REPLAYED,
)
from repro.cluster import FailureDomain, Network, NetworkConfig, Simulator, Topology
from repro.compiler import Hydrolysis
from repro.consistency import CoordinationMechanism
from repro.consistency.paxos import LEARN_REQUESTS
from repro.core.errors import NotDeployableError
from repro.core.facets import TargetSpec
from repro.placement import HandlerLoadModel


def topology(azs=3, per_az=2):
    topo = Topology()
    nodes = []
    for az in range(azs):
        for index in range(per_az):
            node_id = f"node-{az}-{index}"
            topo.place(node_id, az=f"az-{az}", vm=f"vm-{az}-{index}")
            nodes.append(node_id)
    return topo, nodes


def loads():
    return {
        "add_person": HandlerLoadModel("add_person", 100.0, 4.0),
        "add_contact": HandlerLoadModel("add_contact", 200.0, 6.0),
        "trace": HandlerLoadModel("trace", 30.0, 20.0),
        "diagnosed": HandlerLoadModel("diagnosed", 10.0, 25.0),
        "likelihood": HandlerLoadModel("likelihood", 20.0, 60.0, requires_processor="gpu"),
        "vaccinate": HandlerLoadModel("vaccinate", 5.0, 10.0),
    }


class TestCompile:
    def test_plan_covers_every_handler(self):
        program = build_covid_program()
        topo, nodes = topology()
        plan = Hydrolysis().compile(program, topo, nodes, loads())
        assert set(plan.endpoints) == set(program.handlers)

    def test_plan_mirrors_calm_analysis(self):
        program = build_covid_program()
        topo, nodes = topology()
        plan = Hydrolysis().compile(program, topo, nodes, loads())
        assert plan.coordinated_endpoints() == ["vaccinate"]
        assert plan.endpoint("add_contact").analysis.mechanism is CoordinationMechanism.NONE

    def test_plan_respects_availability_facet(self):
        program = build_covid_program()
        topo, nodes = topology()
        plan = Hydrolysis().compile(program, topo, nodes, loads())
        assert plan.endpoint("add_person").replica_count == 3  # default f=2
        assert plan.endpoint("likelihood").replica_count == 2  # override f=1

    def test_plan_sizes_machines_against_target_facet(self):
        program = build_covid_program()
        topo, nodes = topology()
        plan = Hydrolysis().compile(program, topo, nodes, loads())
        config = plan.endpoint("likelihood").machine_configuration
        assert config is not None and config.machine.processor == "gpu"
        assert plan.total_instances > 0
        assert plan.total_hourly_cost > 0

    @pytest.mark.parametrize("objective", ["machines", "cost"])
    def test_unmeetable_target_fails_compile_naming_the_handler(self, objective):
        program = build_covid_program()
        program.targets.override("trace", TargetSpec(latency_ms=0.001))
        with pytest.raises(NotDeployableError, match=r"\['trace'\]"):
            Hydrolysis().compile(program, loads=loads(), objective=objective)

    def test_explain_mentions_every_endpoint_and_reasons(self):
        program = build_covid_program()
        topo, nodes = topology()
        plan = Hydrolysis().compile(program, topo, nodes, loads())
        text = plan.explain()
        for handler in program.handlers:
            assert handler in text

    @pytest.mark.parametrize("builder, sized, digest", [
        (build_covid_program, True, "aa9130744b9814ea"),
        (build_cart_program, False, "fdcb38462a544f9c"),
        (build_collab_program, False, "4f98fabb385ee25d"),
    ], ids=["covid", "cart", "collab"])
    def test_shipped_plans_are_pinned(self, builder, sized, digest):
        """Every shipped program's plan, byte for byte: the coordination
        mechanisms, reasons, placements and sizing ``explain()`` shows."""
        topo, nodes = topology()
        plan = Hydrolysis().compile(builder(), topo, nodes, loads() if sized else None)
        assert hashlib.sha256(plan.explain().encode()).hexdigest()[:16] == digest


class TestDeployment:
    def build_deployment(self, seed=11):
        program = build_covid_program(vaccine_count=5)
        topo, nodes = topology()
        compiler = Hydrolysis()
        plan = compiler.compile(program, topo, nodes, loads())
        simulator = Simulator(seed=seed)
        network = Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
        deployment = compiler.deploy(program, plan, simulator, network)
        return program, plan, deployment

    def test_replicas_and_log_nodes_deploy_in_the_topologys_zones(self):
        """Every replica, and the log node beside it, runs in the zone the
        plan was checked against — not one the deployment makes up."""
        program = build_covid_program(vaccine_count=5)
        topo, nodes = topology()
        compiler = Hydrolysis()
        plan = compiler.compile(program, topo, nodes, loads())
        simulator = Simulator(seed=11)
        deployment = compiler.deploy(program, plan, simulator,
                                     Network(simulator, NetworkConfig()))
        assert deployment.consensus  # vaccinate is coordinated
        for node_id in deployment.replica_ids:
            zone = topo.domain_of(node_id, FailureDomain.AVAILABILITY_ZONE)
            assert deployment.replicas[node_id].domain == zone
            assert deployment.consensus[node_id].domain == zone
            assert deployment.network.domains()[f"{node_id}-log"] == zone

    def test_coordination_free_requests_are_served(self):
        program, plan, deployment = self.build_deployment()
        tokens = [deployment.invoke("add_person", pid=pid, country="US") for pid in range(3)]
        deployment.settle()
        for token in tokens:
            assert deployment.response(token)["status"] == "ok"
        assert deployment.metrics.counter("requests.coordination_free") == 3

    def test_replicas_converge_on_monotone_state(self):
        program, plan, deployment = self.build_deployment()
        deployment.invoke("add_person", pid=1)
        deployment.invoke("add_person", pid=2)
        deployment.invoke("add_contact", id1=1, id2=2)
        deployment.settle(1000.0)
        counts = {
            node: interp.view().count("people")
            for node, interp in deployment.replica_states().items()
        }
        assert set(counts.values()) == {2}

    def test_coordinated_handler_goes_through_consensus(self):
        program, plan, deployment = self.build_deployment()
        deployment.invoke("add_person", pid=1)
        deployment.settle()
        token = deployment.invoke("vaccinate", pid=1)
        deployment.settle()
        assert deployment.metrics.counter("requests.coordinated") == 1
        assert deployment.response(token)["status"] == "ok"
        # Every replica applied the vaccination in log order.
        for interp in deployment.replica_states().values():
            assert interp.view().var("vaccine_count") == 4

    def test_invariant_still_enforced_under_consensus(self):
        program, plan, deployment = self.build_deployment()
        for pid in range(7):
            deployment.invoke("add_person", pid=pid)
        deployment.settle()
        tokens = [deployment.invoke("vaccinate", pid=pid) for pid in range(7)]
        deployment.settle(2000.0)
        statuses = [deployment.response(token)["status"] for token in tokens]
        assert statuses.count("ok") == 5
        assert statuses.count("rejected") == 2

    def test_deployment_survives_one_replica_crash(self):
        program, plan, deployment = self.build_deployment()
        victim = deployment.replica_ids[-1]
        deployment.replicas[victim].crash()
        tokens = [deployment.invoke("add_person", pid=pid) for pid in range(5)]
        deployment.settle(2000.0)
        statuses = [deployment.response(token)["status"] for token in tokens]
        assert statuses.count("ok") == 5
        assert deployment.availability() == 1.0

    def test_coordinated_op_is_answered_when_the_first_replicas_node_is_down(self):
        program, plan, deployment = self.build_deployment()
        deployment.invoke("add_person", pid=1)
        deployment.settle()
        first = deployment.replica_ids[0]
        deployment.replicas[first].crash()      # the program replica, not the log
        assert deployment.consensus_leader is deployment.consensus[first]
        token = deployment.invoke("vaccinate", pid=1)
        deployment.settle(100.0)
        survivors = [replica for replica in deployment.replicas.values() if replica.alive]
        assert len(survivors) == len(deployment.replica_ids) - 1
        for replica in survivors:
            assert replica.interpreter.state.table("people").get(1)["vaccinated"].value
        assert deployment.response(token) == {"status": "ok", "value": "OK"}

    def test_replicas_keep_no_external_sends(self):
        """Each ``diagnosed`` call's alerts leave the replica that ran it:
        they are counted, and none stays behind in an interpreter outbox."""
        program, plan, deployment = self.build_deployment()
        for pid in range(6):
            deployment.invoke("add_person", pid=pid)
        for pid in range(5):
            deployment.invoke("add_contact", id1=pid, id2=pid + 1)
        deployment.settle(1000.0)
        tokens = [deployment.invoke("diagnosed", pid=0) for _ in range(20)]
        deployment.settle(1000.0)
        assert [deployment.response(token)["value"] for token in tokens] == [
            [1, 2, 3, 4, 5]] * 20
        assert all(not replica.interpreter.outbox
                   for replica in deployment.replicas.values())
        assert deployment.network.metrics.counter(EXTERNAL_SENDS) == 100


# -- an ordered op is delivered, and replayed, by the log that ordered it ------------------

ROUND = 10.0
#: Rounds in which a replica that missed a slot has it back.  The report that
#: gives the gap away is read one round late (only a peer's *previous* report
#: counts, so an in-flight ``decide`` never does), which makes two; the replay
#: is in-process and a ``learn`` round trip takes a few ticks of the third.
CATCH_UP_ROUNDS = 3


def ordered_state(deployment):
    """Per replica: what only ordered ops write, and how far it has applied."""
    return [(replica.interpreter.view().var("vaccine_count"),
             sorted(pid for pid, row in replica.interpreter.state.table("people").rows.items()
                    if row["vaccinated"].value),
             replica.ordered_upto)
            for replica in deployment.replicas.values()]


def lattice_tables(replica):
    return {name: {key: tuple(row[field] for field in table.entity.lattice_fields)
                   for key, row in table.rows.items()}
            for name, table in replica.interpreter.state.tables.items()}


def cut_off(deployment, node_id):
    """A replica and its co-located log on one side, everybody else on the other."""
    rest = [other for other in deployment.replica_ids if other != node_id]
    return ([node_id, f"{node_id}-log"],
            rest + [f"{other}-log" for other in rest] + [deployment.proxy.node_id])


class TestOrderedOpRecovery:
    """Each scenario left the victim's ``vaccine_count`` wrong for good at
    a6aca2f (gossip healed the lattice flag only), and its log stalled."""

    def started(self):
        """Six replicas, five vaccines, four people; slot 0 applied everywhere."""
        _, _, deployment = TestDeployment().build_deployment()
        for pid in range(4):
            deployment.invoke("add_person", pid=pid)
        deployment.settle(5 * ROUND)
        self.vaccinate(deployment, 0)
        assert ordered_state(deployment) == [(4, [0], 0)] * 6
        victim = deployment.replica_ids[2]
        return deployment, deployment.replicas[victim], deployment.consensus[victim]

    def vaccinate(self, deployment, pid, horizon=2 * ROUND):
        token = deployment.invoke("vaccinate", pid=pid)
        deployment.settle(horizon)
        assert deployment.response(token) == {"status": "ok", "value": "OK"}

    def assert_caught_up(self, deployment, replayed, learned):
        deployment.settle(CATCH_UP_ROUNDS * ROUND)
        assert len(deployment.consensus_leader.chosen) == 2
        assert ordered_state(deployment) == [(3, [0, 1], 1)] * 6
        # The stalled learner: the victim's log applies the next slot too.
        self.vaccinate(deployment, 2)
        assert ordered_state(deployment) == [(2, [0, 1, 2], 2)] * 6
        counter = deployment.network.metrics.counter
        assert (counter(ORDERED_REPLAYED), counter(LEARN_REQUESTS)) == (replayed, learned)

    def test_log_node_down_for_a_decide(self):
        deployment, _, log = self.started()
        log.crash()
        self.vaccinate(deployment, 1)
        log.recover()
        self.assert_caught_up(deployment, replayed=0, learned=1)

    def test_replica_down_for_a_decide(self):
        deployment, replica, log = self.started()
        replica.crash()
        self.vaccinate(deployment, 1)
        assert log.applied_up_to == 1 and replica.ordered_upto == 0     # skipped, not lost
        replica.recover()
        self.assert_caught_up(deployment, replayed=1, learned=0)

    def test_replica_that_lost_its_state_replays_from_slot_zero(self):
        deployment, replica, _ = self.started()
        self.vaccinate(deployment, 1)
        replica.crash()
        replica.recover(lose_state=True)
        assert replica.ordered_upto == -1
        assert replica.interpreter.view().var("vaccine_count") == 5
        self.assert_caught_up(deployment, replayed=2, learned=0)

    def test_replica_and_log_cut_off_for_the_last_op_of_the_run(self):
        deployment, replica, log = self.started()
        deployment.network.partition(*cut_off(deployment, replica.node_id))
        self.vaccinate(deployment, 1, horizon=10 * ROUND)   # outlasts the accept retries
        assert replica.ordered_upto == 0 and log.applied_up_to == 0
        deployment.network.heal_all()
        self.assert_caught_up(deployment, replayed=0, learned=1)

    def test_reordered_decides_trigger_no_catch_up(self):
        _, _, deployment = TestDeployment().build_deployment()
        arrivals = {}
        for node_id, log in list(deployment.consensus.items())[1:]:
            def recording(message, log=log, seen=arrivals.setdefault(node_id, [])):
                seen.append(message.payload[0])
                log._on_decide(message)
            log.on("decide", recording)
        # A proposal every 0.3 ticks under 0.5 ticks of jitter, for six rounds.
        tokens = []
        for pid in range(200):
            tokens.append(deployment.invoke("vaccinate", pid=pid))
            deployment.settle(0.3)
        deployment.settle(CATCH_UP_ROUNDS * ROUND)
        assert any(seen != sorted(seen) for seen in arrivals.values())
        assert all(sorted(seen) == list(range(200)) for seen in arrivals.values())
        statuses = [deployment.response(token)["status"] for token in tokens]
        assert statuses == ["ok"] * 5 + ["rejected"] * 195
        assert ordered_state(deployment) == [(0, [0, 1, 2, 3, 4], 199)] * 6
        counter = deployment.network.metrics.counter
        assert counter(ORDERED_REPLAYED) == counter(LEARN_REQUESTS) == 0
        for log in deployment.consensus.values():
            assert "learn" not in log.transport.mailbox_stats


# -- the same, under generated faults -------------------------------------------------------

VACCINES = 3
#: Rounds a healed deployment gets: the gossip budget of
#: ``tests/availability/test_delta_gossip.py`` (eight), or a ``learn`` sent to
#: a log that was down timing out (two attempts of 25 ticks) before the next
#: report sends another, whichever is longer — and slack for a learner that
#: catches up from a peer that was itself behind.
HEALED_ROUNDS = 12
SITE = st.integers(0, 5)
PID = st.integers(0, 5)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("add_person"), PID),
    st.tuples(st.just("add_contact"), PID, PID),
    st.tuples(st.just("vaccinate"), PID),
    st.tuples(st.just("vaccinate"), PID),
    st.tuples(st.just("run"), st.integers(1, 9)),
    st.tuples(st.just("run"), st.sampled_from([10, 25, 60])),
    st.tuples(st.just("crash"), st.sampled_from(["replica", "log"]), SITE),
    st.tuples(st.just("recover"), st.sampled_from(["replica", "log"]), SITE, st.booleans()),
    st.tuples(st.just("isolate"), SITE),
    st.tuples(st.just("cut"), SITE, SITE, st.booleans()),
    st.tuples(st.just("heal")),
), max_size=50)

#: Found while widening the property: every replica down for one ``decide``.
#: Nobody is ahead, so nobody's report gives the gap away; the slot is
#: replayed ahead of the next ordered op.
EVERYONE_MISSED_IT = ([("add_person", 1)]
                      + [("crash", "replica", site) for site in range(3)]
                      + [("vaccinate", 1), ("run", 10)]
                      + [("recover", "replica", site, False) for site in range(3)])


class Schedule:
    """The COVID tracker deployed over ``count`` replicas, every ordered
    apply recorded against the interpreter incarnation it ran on."""

    def __init__(self, count, seed):
        topo = Topology()
        nodes = [f"node-{index}" for index in range(count)]
        for index, node_id in enumerate(nodes):
            topo.place(node_id, az=f"az-{index % 3}", vm=f"vm-{index}")
        program = build_covid_program(vaccine_count=VACCINES)
        compiler = Hydrolysis()
        plan = compiler.compile(program, topo, nodes, loads())
        simulator = Simulator(seed=seed)
        network = Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
        self.deployment = compiler.deploy(program, plan, simulator, network)
        assert len(self.deployment.replicas) == count
        self.tokens = []
        #: (interpreter, slot) of every ordered apply that was not ignored.
        self.applied = []
        for replica in self.deployment.replicas.values():
            self._record_ordered(replica)

    def _record_ordered(self, replica):
        apply_ordered = replica.apply_ordered

        def recording(slot, handler, args):
            interpreter = replica.interpreter
            result = apply_ordered(slot, handler, args)
            if result is not None:
                self.applied.append((interpreter, slot))
            return result

        replica.apply_ordered = recording

    def site(self, index):
        return self.deployment.replica_ids[index % len(self.deployment.replica_ids)]

    def play(self, steps):
        deployment = self.deployment
        for kind, *args in steps:
            if kind == "run":
                deployment.settle(args[0])
            elif kind == "heal":
                deployment.network.heal_all()
            elif kind == "isolate":
                deployment.network.partition(*cut_off(deployment, self.site(args[0])))
            elif kind == "cut":
                near, far = (cut_off(deployment, self.site(index))[0] for index in args[:2])
                deployment.network.partition(near, far, oneway=args[2])
            elif kind in ("crash", "recover"):
                node_id = self.site(args[1])
                node = (deployment.replicas if args[0] == "replica"
                        else deployment.consensus)[node_id]
                if node is deployment.consensus_leader:
                    continue        # failover is PaxosWorkload's subject
                if kind == "crash":
                    node.crash()
                else:
                    node.recover(lose_state=args[2])
            else:
                names = {"add_person": ("pid",), "add_contact": ("id1", "id2"),
                         "vaccinate": ("pid",)}[kind]
                token = deployment.invoke(kind, **dict(zip(names, args)))
                if kind == "vaccinate":
                    self.tokens.append(token)
            self.check_safety()

    def check_safety(self):
        """Holds after every step, mid-fault: nobody oversells."""
        answers = [self.deployment.response(token) for token in self.tokens]
        assert sum(answer is not None and answer["status"] == "ok"
                   for answer in answers) <= VACCINES
        for count, vaccinated, _ in ordered_state(self.deployment):
            assert 0 <= count <= VACCINES and len(vaccinated) <= VACCINES

    def heal(self, lose_at_heal):
        deployment = self.deployment
        deployment.network.heal_all()
        for node in [*deployment.replicas.values(), *deployment.consensus.values()]:
            if not node.alive:
                node.recover(lose_state=lose_at_heal)
        deployment.settle(HEALED_ROUNDS * ROUND)
        self.check_safety()

    def check_converged(self):
        deployment = self.deployment
        replicas = list(deployment.replicas.values())
        leader = deployment.consensus_leader
        states = ordered_state(deployment)
        assert states == states[:1] * len(replicas)
        assert [lattice_tables(replica) for replica in replicas] == (
            [lattice_tables(replicas[0])] * len(replicas))
        # Everything the log could apply, every replica did — unless every
        # replica missed it (``EVERYONE_MISSED_IT``): then none is ahead.
        assert replicas[0].ordered_upto <= leader.applied_up_to
        if any(replica.ordered_upto == leader.applied_up_to for replica in replicas):
            assert all(replica.ordered_upto == log.applied_up_to == leader.applied_up_to
                       for replica, log in zip(replicas, deployment.consensus.values()))
        # One incarnation of an interpreter sees slots 0, 1, 2, ... once each.
        slots = {}
        for interpreter, slot in self.applied:
            slots.setdefault(id(interpreter), []).append(slot)
        assert all(seen == list(range(len(seen))) for seen in slots.values())
        counter = deployment.network.metrics.counter
        assert counter(FRESH_ENTRIES) <= counter(LOGGED_CHANGES) * (len(replicas) - 1)


@given(st.integers(3, 6), st.integers(0, 50), STEPS, st.booleans())
@example(3, 3, EVERYONE_MISSED_IT, False)
@example(3, 3, EVERYONE_MISSED_IT, True)
@settings(deadline=None)
def test_ordered_ops_converge_under_generated_faults(count, seed, steps, lose_at_heal):
    schedule = Schedule(count, seed)
    schedule.play(steps)
    schedule.heal(lose_at_heal)
    schedule.check_converged()
    # With the log gap-free, one more ordered op brings everyone all the way.
    leader = schedule.deployment.consensus_leader
    if leader.applied_up_to == len(leader.chosen) - 1 == leader.next_slot - 1:
        schedule.play([("vaccinate", 0), ("run", int(HEALED_ROUNDS * ROUND))])
        schedule.check_converged()
        assert all(replica.ordered_upto == leader.next_slot - 1
                   for replica in schedule.deployment.replicas.values())


def test_the_cart_program_has_no_ordered_op_to_schedule():
    """Every cart handler, ``sealed_checkout`` included, is monotone: no
    consensus log is deployed, so the schedule above has nothing to run
    over it."""
    program = build_cart_program()
    plan = Hydrolysis().compile(program)
    assert plan.coordinated_endpoints() == []
    simulator = Simulator(seed=1)
    deployment = Hydrolysis().deploy(program, plan, simulator,
                                     Network(simulator, NetworkConfig()))
    assert deployment.consensus == {}
    assert all(replica.catch_up is None for replica in deployment.replicas.values())
