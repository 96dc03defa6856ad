"""The ``pact_covid`` workload: the paper's running example, compiled.

``build_covid_program`` goes through ``Hydrolysis.compile`` + ``deploy`` on
the 3-AZ x 2-node topology of ``examples/covid_cloud_deployment.py``
(restated here so the example can change without moving the benchmark).
Monotone endpoints complete through the replica proxy; ``vaccinate`` goes
through the consensus log and is polled for, as a client of
``HydroDeployment`` must.  The KVS storage layer is bypassed: interpreter,
replica gossip, proxy, Paxos, compiler and placement do the work.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.apps.covid import build_covid_program
from repro.cluster import Network, NetworkConfig, Simulator, Topology
from repro.compiler import Hydrolysis
from repro.placement import HandlerLoadModel

from bench_e2e.harness import (
    Op,
    Phases,
    SpeedMeter,
    advance,
    cluster_counters,
    ratio,
    run_load,
)
from bench_e2e.spec import WORKLOADS

CLIENTS = 4
PRELOADED_PEOPLE = 100
COUNTRIES = ("US", "DE", "IN", "BR")
#: Vaccines per full-scale op count; scaled with the ops so the
#: non-negativity invariant still rejects the tail of the vaccinate calls.
VACCINES_AT_FULL_SCALE = 40
POLL_TICKS = 0.25
SETTLE_TICKS = 50.0
#: The op mix — 25% add_person, 45% add_contact, 20% trace, 10% vaccinate —
#: dealt in blocks of 20: the 16 updates shuffled, a ``trace`` after every
#: fourth.  Every seed then meets the same mix at the same state size (a
#: ``trace`` costs more the later it runs; a free draw per op made host time
#: a function of the seed more than of the code).
UPDATE_BLOCK = (("add_person",) * 5 + ("add_contact",) * 9
                + ("vaccinate",) * 2)
UPDATES_PER_TRACE = 4
KIND = {"add_person": "write", "add_contact": "write", "trace": "read",
        "vaccinate": "coord"}
FULL_SCALE_OPS = next(w.ops for w in WORKLOADS if w.name == "pact_covid")


def generate_ops(count: int, seed: int) -> list[Op]:
    """The op stream: a pure function of ``(count, seed)``.

    Contacts grow one cluster on a schedule: every other contact brings in
    someone new, the rest link two members.  ``trace`` costs the cube of the
    cluster's size, so independent random pairs made host time a percolation
    lottery (+-15% from seed to seed); here the seed picks who, not how many.
    """
    rng = random.Random(f"pact_covid:{seed}")
    known = list(range(PRELOADED_PEOPLE))
    outside = list(known)  # not in the contact cluster yet, shuffled below
    rng.shuffle(outside)
    cluster = [outside.pop()]
    actions: list[str] = []
    while len(actions) < count:
        updates = list(UPDATE_BLOCK)
        rng.shuffle(updates)
        for start in range(0, len(updates), UPDATES_PER_TRACE):
            actions.extend(updates[start:start + UPDATES_PER_TRACE])
            actions.append("trace")
    ops = []
    contacts = 0
    for index, action in enumerate(actions[:count], start=1):
        if action == "add_person":
            pid = len(known)
            known.append(pid)
            outside.insert(rng.randrange(len(outside) + 1), pid)
            args = {"pid": pid, "country": rng.choice(COUNTRIES)}
        elif action == "add_contact":
            contacts += 1
            if contacts % 2 and outside:
                id1, id2 = rng.choice(cluster), outside.pop()
                cluster.append(id2)
            else:
                id1, id2 = rng.sample(cluster, 2)
            args = {"id1": id1, "id2": id2}
        else:
            args = {"pid": rng.choice(known)}
        ops.append(Op(index, KIND[action], action,
                      tuple(args.values()), args))
    return ops


def build_topology() -> tuple[Topology, list[str]]:
    topology = Topology()
    nodes = []
    for az in range(3):
        for index in range(2):
            node_id = f"node-{az}-{index}"
            topology.place(node_id, az=f"az-{az}", vm=f"vm-{az}-{index}")
            nodes.append(node_id)
    return topology, nodes


def handler_loads() -> dict[str, HandlerLoadModel]:
    return {
        "add_person": HandlerLoadModel("add_person", 150.0, 4.0),
        "add_contact": HandlerLoadModel("add_contact", 300.0, 6.0),
        "trace": HandlerLoadModel("trace", 40.0, 20.0),
        "diagnosed": HandlerLoadModel("diagnosed", 15.0, 25.0),
        "likelihood": HandlerLoadModel("likelihood", 25.0, 60.0,
                                       requires_processor="gpu"),
        "vaccinate": HandlerLoadModel("vaccinate", 10.0, 10.0),
    }


class PactRun:
    """One compiled, deployed COVID tracker and the driver's view of it."""

    def __init__(self, seed: int, vaccine_count: int, meter: SpeedMeter) -> None:
        self.vaccine_count = vaccine_count
        program = build_covid_program(vaccine_count=vaccine_count)
        topology, nodes = build_topology()
        compiler = Hydrolysis()
        before = meter.read()
        plan = compiler.compile(program, topology, nodes, handler_loads())
        self.compile_s = meter.read().reference - before.reference
        self.simulator = Simulator(seed=seed)
        self.network = Network(self.simulator,
                               NetworkConfig(base_delay=1.0, jitter=0.5))
        self.deployment = compiler.deploy(program, plan, self.simulator,
                                          self.network)

    def preload(self, meter: SpeedMeter) -> None:
        replies = []
        for pid in range(PRELOADED_PEOPLE):
            self.deployment.proxy.invoke(
                "add_person", {"pid": pid, "country": COUNTRIES[pid % 4]},
                on_reply=replies.append)
        while len(replies) < PRELOADED_PEOPLE:
            if not self.simulator.step():
                raise RuntimeError("preload stalled")
            meter.tick()

    def settle(self, meter: SpeedMeter) -> None:
        advance(self.simulator, SETTLE_TICKS, meter)

    # -- load ---------------------------------------------------------------

    def issue(self, op: Op, done: Callable[[str, bool], None]) -> None:
        if op.action != "vaccinate":
            self.deployment.proxy.invoke(
                op.action, op.arg, on_reply=lambda reply: done(reply["status"]))
            return
        token = self.deployment.invoke("vaccinate", **op.arg)

        def poll() -> None:
            if op.outcome != "unissued":
                return  # the deadline resolved it first
            response = self.deployment.response(token)
            if response is None:
                self.simulator.schedule(POLL_TICKS, poll, label="bench-poll")
            else:
                done(response["status"])

        poll()

    # -- after the load -------------------------------------------------------

    def monotone_tables(self) -> list[dict]:
        """Per replica: ``{table: {key: lattice fields}}`` (plain fields may
        legitimately differ between replicas; lattice fields may not)."""
        views = []
        for replica in self.deployment.replicas.values():
            state = replica.interpreter.state
            view = {}
            for name, table in state.tables.items():
                lattice_fields = [spec.name for spec in table.entity.fields
                                  if spec.is_lattice]
                view[name] = {key: tuple(row[field] for field in lattice_fields)
                              for key, row in table.rows.items()}
            views.append(view)
        return views

    def replicas_equal(self) -> bool:
        views = self.monotone_tables()
        return all(view == views[0] for view in views[1:])

    def heal(self) -> None:
        """Fault-free: nothing to heal."""

    def verify(self, ops: list[Op]) -> tuple[list[str], int]:
        errors = []
        if not self.replicas_equal():
            errors.append("replicas hold different monotone tables")
        vaccinated = sum(op.action == "vaccinate" and op.outcome == "ok"
                         for op in ops)
        if vaccinated > self.vaccine_count:
            errors.append(f"{vaccinated} vaccinations succeeded with "
                          f"{self.vaccine_count} vaccines")
        people = next(iter(self.deployment.replicas.values())
                      ).interpreter.state.table("people")
        for op in ops:
            if op.outcome != "ok":
                continue
            if op.action == "add_person" and op.arg["pid"] not in people:
                errors.append(f"acked add_person {op.arg['pid']} missing")
            elif op.action == "add_contact":
                id1, id2 = op.arg["id1"], op.arg["id2"]
                if (id2 not in people.get(id1)["contacts"]
                        or id1 not in people.get(id2)["contacts"]):
                    errors.append(f"acked add_contact {id1}-{id2} missing")
        return errors[:20], 0

    # -- counters -----------------------------------------------------------

    def nodes(self) -> list:
        deployment = self.deployment
        return ([deployment.proxy] + list(deployment.replicas.values())
                + list(deployment.consensus.values()))

    def recorders(self) -> list:
        return [self.network.metrics.latency("net.delivery")] + [
            self.deployment.metrics.latency(f"proxy.{handler}")
            for handler in self.deployment.program.handlers]

    def counters(self) -> dict[str, float]:
        deployment = self.deployment
        snapshot = cluster_counters(self.simulator, self.network)
        leader = deployment.consensus_leader
        snapshot.update({
            "interpreter_ticks": sum(replica.interpreter.tick_number
                                     for replica in deployment.replicas.values()),
            "proxy_retries": deployment.metrics.counter("proxy.retries"),
            "gossip_entries": sum(
                replica.transport.mailbox_stats.get("gossip", {}).get("entries", 0)
                for replica in deployment.replicas.values()),
            "paxos_messages": sum(paxos.transport.logical_messages_sent
                                  for paxos in deployment.consensus.values()),
            "paxos_commits": len(leader.chosen) if leader is not None else 0,
        })
        return snapshot


def vaccines_for(op_count: int) -> int:
    return max(1, round(VACCINES_AT_FULL_SCALE * op_count / FULL_SCALE_OPS))


def setup(seed: int, op_count: int, phases: Phases,
          meter: SpeedMeter) -> PactRun:
    """Compile, deploy, preload and settle the COVID tracker."""
    with phases("setup.build"):
        bench = PactRun(seed, vaccines_for(op_count), meter)
    with phases("setup.preload"):
        bench.preload(meter)
    with phases("setup.settle"):
        bench.settle(meter)
    return bench


def load(bench: PactRun, seed: int, op_count: int, traced_share: float,
         phases: Phases, meter: SpeedMeter, load_wrapper=None) -> dict:
    """Load, converge and verify; see ``kvs.load`` for the arguments."""
    ops = generate_ops(op_count, seed)
    ops = ops[:max(1, int(len(ops) * traced_share))]
    result = run_load(bench, ops, CLIENTS, phases, meter, load_wrapper)
    delta = result["delta"]
    result["writes"] = sum(op.kind == "write" for op in ops)
    result["metrics"]["stale_reads_share"] = None
    result["layers"].update({
        "core.interpreter.ticks_per_op": delta["interpreter_ticks"] / len(ops),
        "availability.proxy.retries_per_op": delta["proxy_retries"] / len(ops),
        "availability.replication.gossip_entries_per_op":
            delta["gossip_entries"] / len(ops),
        "consistency.paxos.messages_per_commit":
            ratio(delta["paxos_messages"], delta["paxos_commits"]),
        "compiler.compile_s": bench.compile_s,
    })
    return result
