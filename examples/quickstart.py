"""Quickstart: the paper's COVID tracker on the single-node HydroLogic runtime.

Builds the lifted program of Figure 3, exercises every handler, prints the
monotonicity/CALM analysis and the coordination decisions the Hydrolysis
compiler would make — the shortest possible tour of the PACT facets.  A
second scenario tours the storage substrate: the lattice KVS with
deterministic consistent-hash sharding, live resharding, and gossip
convergence via ``settle()``.

Run with:  python examples/quickstart.py
"""

from repro.apps.covid import build_covid_program
from repro.cluster import Network, NetworkConfig, Simulator
from repro.core import InvariantViolation, SingleNodeInterpreter, analyze_program
from repro.lattices import SetUnion
from repro.storage import LatticeKVS


def resharding_scenario() -> None:
    """Grow a live lattice KVS from 4 to 7 shards without losing a key.

    Shard routing uses a consistent-hash ring over stable blake2 digests,
    so placement is identical in every process regardless of
    ``PYTHONHASHSEED``, and growing the ring only migrates the keys whose
    ring ownership changed (~3/7 here).  The non-multiple step is the
    interesting one: modulo hashing would reshuffle ~86% of the keyspace
    going 4 -> 7, since only 1 residue in 7 agrees between ``% 4`` and
    ``% 7``.

    ``settle(horizon)`` advances the *simulated* clock by ``horizon``
    (default 500 time units): gossip timers re-arm forever, so the KVS never
    goes idle — instead the horizon is sized to cover several gossip rounds
    plus any in-flight replication, after which reads are converged.
    """
    simulator = Simulator(seed=7)
    network = Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
    kvs = LatticeKVS(simulator, network, shard_count=4, replication_factor=2)
    for index in range(200):
        kvs.put(f"key-{index}", SetUnion({index}))
    kvs.settle()  # one horizon: replication + a few gossip rounds

    report = kvs.reshard(7)
    kvs.settle()  # migration messages are async too
    readable = sum(
        1 for index in range(200)
        if kvs.get_merged(f"key-{index}") == SetUnion({index})
    )
    print(f"reshard: {report!r}")
    print(f"keys moved: {report.moved_fraction:.1%} "
          "(modulo hashing would move ~86% on a 4 -> 7 step)")
    print(f"readable after settle(): {readable}/200")


def main() -> None:
    program = build_covid_program(vaccine_count=2)
    print("=== Program (P/A/C/T facets) ===")
    print(program.describe())

    app = SingleNodeInterpreter(program)

    print("\n=== Running the Figure 2/3 scenario ===")
    for pid in (1, 2, 3, 4, 5):
        app.call_and_run("add_person", pid=pid, country="US")
    for a, b in [(1, 2), (2, 3), (4, 5)]:
        app.call_and_run("add_contact", id1=a, id2=b)
    print("trace(1)        ->", app.call_and_run("trace", pid=1))
    print("diagnosed(1)    ->", app.call_and_run("diagnosed", pid=1))
    print("alerts sent     ->", [send.payload for send in app.outbox])
    print("likelihood(2)   ->", app.call_and_run("likelihood", pid=2))
    print("vaccinate(2)    ->", app.call_and_run("vaccinate", pid=2))
    print("vaccinate(3)    ->", app.call_and_run("vaccinate", pid=3))
    try:
        app.call_and_run("vaccinate", pid=4)
    except InvariantViolation as exc:
        print("vaccinate(4)    -> rejected:", exc)

    print("\n=== Monotonicity / CALM analysis ===")
    report = analyze_program(program)
    print(report.describe())

    print("\n=== Coordination decisions (the consistency facet, compiled) ===")
    for name, analysis in sorted(report.handlers.items()):
        print(f"  {name:<12} -> {analysis.mechanism.value}")

    print("\n=== Deterministic sharding: live reshard of the lattice KVS ===")
    resharding_scenario()


if __name__ == "__main__":
    main()
