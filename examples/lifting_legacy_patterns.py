"""Lifting legacy design patterns to HydroLogic (§4, Appendix A).

Runs the three Appendix A scenarios — actors, promises/futures and MPI
collectives — natively and through their lifted HydroLogic translations,
checking observable equivalence, and finishes with an ORM-style sequential
program lifted per §4's "single-threaded applications" scenario, including
what the monotonicity analysis learns about each lifted handler.  The actor
is also compiled onto three availability zones and hit with a burst of
concurrent calls, whose replies must equal the native actor's.

Run with:  python examples/lifting_legacy_patterns.py
"""

from repro.cluster import Network, NetworkConfig, Simulator, Topology
from repro.compiler import Hydrolysis
from repro.core import SingleNodeInterpreter, analyze_program
from repro.lifting import ActorClass, ActorSystem, MPICluster, lift_actor_class
from repro.lifting.futures import (
    lift_future_program,
    run_lifted_future_program,
    run_native_future_program,
)
from repro.lifting.sequential import (
    ColumnSpec,
    MethodSpec,
    Operation,
    SequentialTableProgram,
    TableSpec,
    lift_sequential_program,
)
from repro.lifting.verify import differential_check


def actors_demo() -> None:
    print("=== Actors (Appendix A.1) ===")

    def init(balance=0):
        return {"balance": balance}

    def deposit(state, amount):
        state["balance"] += amount
        return state["balance"]

    def withdraw(state, amount):
        if state["balance"] < amount:
            return "insufficient"
        state["balance"] -= amount
        return state["balance"]

    account = ActorClass("Account", init=init, handlers={"deposit": deposit, "withdraw": withdraw})
    system = ActorSystem()
    system.register(account)

    def native_call(name, kwargs):
        if name == "spawn":
            return system.spawn("Account", actor_id=kwargs["actor_id"],
                                **(kwargs.get("init_kwargs") or {}))
        return system.send(kwargs["actor_id"], name, **(kwargs.get("kwargs") or {}))

    operations = [
        ("spawn", {"actor_id": "acct", "init_kwargs": {"balance": 100}}),
        ("deposit", {"actor_id": "acct", "kwargs": {"amount": 25}}),
        ("withdraw", {"actor_id": "acct", "kwargs": {"amount": 60}}),
        ("withdraw", {"actor_id": "acct", "kwargs": {"amount": 1000}}),
    ]
    report = differential_check(native_call, lift_actor_class(account), operations)
    print("native vs lifted actor program:", report.describe())

    # The same actor deployed: nine deposits and three overdrafts at one
    # instant.  Its handlers are serializable, so the log orders the burst.
    burst = [("deposit", 10)] * 9 + [("withdraw", 150)] * 3
    system.spawn("Account", actor_id="burst", balance=100)
    native = [system.send("burst", method, amount=amount) for method, amount in burst]
    topo = Topology()
    nodes = []
    for az in range(3):
        for index in range(2):
            nodes.append(f"node-{az}-{index}")
            topo.place(nodes[-1], az=f"az-{az}", vm=f"vm-{az}-{index}")
    program = lift_actor_class(account)
    plan = Hydrolysis().compile(program, topo, nodes)
    simulator = Simulator(seed=1)
    deployment = Hydrolysis().deploy(program, plan, simulator,
                                     Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5)))
    deployment.invoke("spawn", actor_id="burst", init_kwargs={"balance": 100})
    deployment.settle()
    tokens = [deployment.invoke(method, actor_id="burst", kwargs={"amount": amount})
              for method, amount in burst]
    deployment.settle()
    deployed = [deployment.response(token)["value"] for token in tokens]
    print("concurrent burst, native actor:", native)
    print(f"concurrent burst, {len(deployment.replicas)} replicas  :", deployed)
    assert deployed == native


def futures_demo() -> None:
    print("\n=== Promises / futures (Appendix A.2) ===")
    native = run_native_future_program(lambda i: i * i, 4, lambda: "local work done")
    lifted = run_lifted_future_program(lift_future_program(lambda i: i * i, 4, lambda: "local work done"))
    print("native :", native.local_result, native.future_results)
    print("lifted :", lifted.local_result, lifted.future_results)
    assert native.future_results == lifted.future_results


def mpi_demo() -> None:
    print("\n=== MPI collectives (Appendix A.3) ===")
    simulator = Simulator(seed=5)
    network = Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.2))
    cluster = MPICluster(simulator, network, size=16)
    naive_stats = cluster.bcast("model-weights", algorithm="naive")
    cluster.clear()
    tree_stats = cluster.bcast("model-weights", algorithm="tree")
    print(f"bcast to 16 ranks: naive={naive_stats['messages']} messages, "
          f"tree={tree_stats['messages']} messages")
    result, reduce_stats = cluster.reduce(list(range(16)), lambda a, b: a + b, algorithm="tree")
    print(f"tree allreduce result={result} using {reduce_stats['messages']} messages")


def sequential_demo() -> None:
    print("\n=== Sequential ORM-style program (§4) ===")
    program = SequentialTableProgram(
        name="todo",
        tables=[TableSpec("tasks", (ColumnSpec("task_id", int), ColumnSpec("title", str),
                                    ColumnSpec("done", bool)), key="task_id")],
        methods=[
            MethodSpec("add_task", ("task_id", "title"), (Operation("insert", table="tasks"),)),
            MethodSpec("complete", ("task_id", "flag"),
                       (Operation("update_field", table="tasks", column="done",
                                  key_param="task_id", value_param="flag"),)),
            MethodSpec("get_task", ("task_id",),
                       (Operation("lookup", table="tasks", key_param="task_id"),)),
        ],
    )
    lifted = lift_sequential_program(program)
    app = SingleNodeInterpreter(lifted)
    app.call_and_run("add_task", task_id=1, title="write DESIGN.md")
    app.call_and_run("complete", task_id=1, flag=True)
    print("lifted lookup:", app.call_and_run("get_task", task_id=1))
    analysis = analyze_program(lifted)
    for handler, verdict in sorted((name, a.verdict.value) for name, a in analysis.handlers.items()):
        print(f"  {handler:<10} {verdict}")


def main() -> None:
    actors_demo()
    futures_demo()
    mpi_demo()
    sequential_demo()


if __name__ == "__main__":
    main()
