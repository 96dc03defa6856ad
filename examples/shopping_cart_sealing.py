"""Consistency placement: the Dynamo shopping cart with and without sealing (§7.2, E3).

Replays the paper's favourite example of application-level consistency
design: cart updates are monotone and coordination-free; only checkout needs
care.  The script contrasts

* the serializable checkout (every checkout coordinated across replicas via
  a consensus log), against
* client-side sealing (the client ships a manifest; each replica finalises
  unilaterally once its lattice state covers it),

and shows both arrive at the same final order while sealing avoids the
coordination messages entirely.  It then repeats the comparison, silently,
on carts of 10, 50 and 200 items and asserts the same outcome.

Run with:  python examples/shopping_cart_sealing.py
"""

from repro.apps.shopping_cart import build_cart_program
from repro.cluster import Network, NetworkConfig, Simulator
from repro.consistency.paxos import ConsensusLog
from repro.core import SingleNodeInterpreter
from repro.lattices import SetUnion


class Seal:
    """One replica's seal on one cart.

    The test "observed ⊇ manifest" is upward-closed over a growing set: once
    it holds it keeps holding, so the seal fires once, and every replica
    finalises to the manifest whatever order its updates arrived in.
    """

    def __init__(self, manifest) -> None:
        self.manifest = frozenset(manifest)
        self.observed = SetUnion()
        self.final = None

    def observe(self, items) -> bool:
        """Merge observed items; True only on the call that seals."""
        self.observed = self.observed.merge(SetUnion(items))
        if self.final is None and self.manifest <= self.observed.elements:
            self.final = self.manifest
            return True
        return False


def sealed_finals(orders: list[list[tuple[str, dict]]], manifest) -> list[frozenset]:
    """One cart replica per op order; each seals against ``manifest``."""
    program = build_cart_program()
    finals = []
    for index, ops in enumerate(orders):
        replica = SingleNodeInterpreter(program, node_id=f"replica-{index}")
        seal = Seal(manifest)
        fired = 0
        for handler, kwargs in ops:
            replica.call_and_run(handler, **kwargs)
            row = replica.view().row("carts", 1)
            fired += seal.observe(row["items"].live if row else ())
        assert fired == 1 and not seal.observe({"one-more"}), "a seal fires once"
        finals.append(seal.final)
    return finals


def serializable_checkout(session_ops: list[tuple[str, dict]]) -> tuple[list, int]:
    """The coordinated alternative: checkout rides a consensus log.  Returns
    every replica's final order and the messages the log sent."""
    simulator = Simulator(seed=7)
    network = Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5))
    program = build_cart_program()
    replicas = {f"r{i}": SingleNodeInterpreter(program, node_id=f"r{i}") for i in range(3)}

    def apply_entry(replica_id, slot, value):
        replicas[replica_id].call_and_run(value["handler"], **value["args"])

    log = ConsensusLog(simulator, network, list(replicas), apply_entry=apply_entry)
    for handler, kwargs in session_ops:
        log.append({"handler": handler, "args": kwargs})
    log.append({"handler": "checkout", "args": {"session": 1}})
    simulator.run_until_idle()
    return [replica.query("order_of", 1) for replica in replicas.values()], network.messages_sent


def three_orders(ops: list) -> list[list]:
    return [ops, list(reversed(ops)), ops[::2] + ops[1::2]]


def cart_operations(items: int) -> tuple[list, frozenset]:
    """``items`` adds, every fourth removing the item before it; and the
    cart that leaves."""
    ops = []
    for index in range(items):
        ops.append(("add_item", {"session": 1, "item": f"item-{index}"}))
        if index % 4 == 3:
            ops.append(("remove_item", {"session": 1, "item": f"item-{index - 1}"}))
    removed = {f"item-{i - 1}" for i in range(items) if i % 4 == 3}
    return ops, frozenset(f"item-{i}" for i in range(items)) - removed


def main() -> None:
    session_ops = [
        ("add_item", {"session": 1, "item": "apples"}),
        ("add_item", {"session": 1, "item": "bread"}),
        ("add_item", {"session": 1, "item": "cheese"}),
        ("remove_item", {"session": 1, "item": "bread"}),
        ("add_item", {"session": 1, "item": "dates"}),
    ]
    manifest = {"apples", "cheese", "dates"}

    print("=== Coordination-free cart with client-side sealing ===")
    finals = sealed_finals(three_orders(session_ops), manifest)
    print("sealed final carts per replica:")
    for index, items in enumerate(finals):
        print(f"  replica-{index}: {sorted(items)}")
    assert len(set(finals)) == 1, "replicas disagreed!"
    print("coordination messages used by sealing: 0 (the manifest rides the client's request)\n")

    print("=== Serializable checkout through a consensus log ===")
    finals, messages = serializable_checkout(session_ops)
    print("serializable final cart (all replicas):", sorted(finals[0]))
    print(f"coordination messages used by consensus: {messages}")

    for items in (10, 50, 200):
        ops, expected = cart_operations(items)
        assert set(sealed_finals(three_orders(ops), expected)) == {expected}
        finals, messages = serializable_checkout(ops)
        assert set(finals) == {expected} and messages > 0     # sealing sends none


if __name__ == "__main__":
    main()
