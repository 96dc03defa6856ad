"""Runtime sanitizers: payload freeze and flush-order perturbation.

Two contracts, one per flag:

* ``sanitize=True`` is **pure observation** — it digests every payload at
  ``queue()`` time and re-checks at flush.  A clean run must be
  byte-identical (trace and state digest) to the same run without it; a
  mutated-after-queue payload must fail loudly, naming the parcel.
* ``perturb_order=True`` reverses the transport's sorted flush order.  Any
  fixed deterministic order is contractually valid, so every checker must
  still pass — and the trace must actually *differ*, proving the
  perturbation bites rather than silently no-opping.
"""

from dataclasses import dataclass, replace

import pytest

from repro.chaos import fast_config, run_scenario, standard_schedule, state_digest
from repro.cluster import (
    Network,
    NetworkConfig,
    Node,
    PayloadMutationError,
    Simulator,
    TransportConfig,
    payload_digest,
)
from repro.lattices import LWWRegister, MapLattice, SetUnion

SEED = 11


@dataclass
class Pinned:
    key: str
    versions: list


class Plain:
    def __init__(self):
        self.name = "plain"
        self.items = [1, 2]


def pinned_payloads():
    loop = {"name": "loop"}
    loop["self"] = loop
    return {
        "None": None, "True": True, "int": 7, "float": 1.5, "str": "s",
        "bytes": b"b", "dict": {"b": 2, "a": [1]}, "set": {3, 1, 2},
        "frozenset": frozenset({"y", "x"}), "list": [1, "two", None],
        "tuple": (1, (2, 3)), "dataclass": Pinned("k", [1, 2]),
        "plain": Plain(), "lww": LWWRegister(3, "v", "w1"),
        "setunion": SetUnion({"b", "a"}),
        "map": MapLattice({"b": SetUnion({1}), "a": LWWRegister(2, "v")}),
        "cycle": loop,
    }


#: ``payload_digest`` of each of ``pinned_payloads()``.
PINNED_DIGESTS = {
    "None": "63a0348e2d1fa52b743efa58097285ce",
    "True": "df10fa9db79cfd151d41d77d30af654e",
    "int": "65c520c79830ab999c085c5e94b755b1",
    "float": "3fa9beac2c1a49d250f4099062ef8e38",
    "str": "be4b336efadfdbb05b24b68e06f60242",
    "bytes": "6d02106a31645cee00cee53b7085c0e6",
    "dict": "74bbc9265ea1631b491c48486aa9bc09",
    "set": "c68daa4b8de489870833435c9b893f28",
    "frozenset": "cd78f5bd2368f38dd6a29b29a8464de6",
    "list": "de6b5833114a45739448776ea2839bf5",
    "tuple": "42b72e0875cce588389f7e17e5b6b309",
    "dataclass": "d8df265ccf5b5a84d8df7764a6f21b55",
    "plain": "015f378b12a352347354a4818bac786d",
    "lww": "b437862eed819e67b0567403b2bce00a",
    "setunion": "f5562b3cce95cc354cdb53b44fc27e42",
    "map": "26f55dd94fa348a65a13ccdd3ce0ad84",
    "cycle": "9187009bf0033467ba0865addb8645e2",
}


def build_pair(sanitize=True):
    sim = Simulator(seed=1)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0),
                  transport=TransportConfig(batching=True, sanitize=sanitize))
    a = Node("a", sim, net)
    b = Node("b", sim, net)
    return sim, net, a, b


class TestPayloadFreeze:
    def test_mutation_after_queue_is_caught_and_names_the_parcel(self):
        sim, net, a, b = build_pair()
        payload = {"items": [1, 2]}
        a.queue("b", "inbox", payload, entries=2)
        payload["items"].append(3)  # the bug: transport owns this now
        with pytest.raises(PayloadMutationError) as excinfo:
            sim.run(until=5.0)
        message = str(excinfo.value)
        assert "'inbox'" in message          # which mailbox
        assert "'a'" in message and "'b'" in message  # which link
        assert "mutated after queue()" in message

    def test_untouched_payload_ships_clean(self):
        sim, net, a, b = build_pair()
        delivered = []
        b.on("inbox", lambda msg: delivered.append(msg.payload))
        a.queue("b", "inbox", {"items": [1, 2]}, entries=2)
        sim.run(until=5.0)
        assert delivered == [{"items": [1, 2]}]

    def test_snapshot_before_queue_is_the_sanctioned_pattern(self):
        sim, net, a, b = build_pair()
        working = {"items": [1, 2]}
        a.queue("b", "inbox", {"items": list(working["items"])}, entries=2)
        working["items"].append(3)  # mutating the *source* is fine
        sim.run(until=5.0)  # no PayloadMutationError

    def test_crash_clears_pending_digests(self):
        sim, net, a, b = build_pair()
        payload = {"items": [1]}
        a.queue("b", "inbox", payload, entries=1)
        a.crash()
        payload["items"].append(2)
        sim.run(until=5.0)  # queue dropped with the crash; nothing to verify
        a.recover()
        a.queue("b", "inbox", {"fresh": True}, entries=1)
        sim.run(until=10.0)


class TestPayloadDigest:
    def test_structural_equality_ignores_dict_insertion_order(self):
        first = {"a": 1, "b": 2}
        second = {"b": 2, "a": 1}
        assert payload_digest(first) == payload_digest(second)

    def test_value_change_changes_the_digest(self):
        assert payload_digest({"a": [1, 2]}) != payload_digest({"a": [1, 3]})

    def test_list_order_matters_but_set_order_does_not(self):
        assert payload_digest([1, 2]) != payload_digest([2, 1])
        assert payload_digest({1, 2}) == payload_digest({2, 1})

    def test_nested_dataclasses_are_folded_by_field(self):
        @dataclass
        class Delta:
            key: str
            versions: list

        assert (payload_digest(Delta("k", [1, 2]))
                == payload_digest(Delta("k", [1, 2])))
        assert (payload_digest(Delta("k", [1, 2]))
                != payload_digest(Delta("k", [1, 2, 3])))

    def test_cyclic_payload_terminates(self):
        loop = {"name": "loop"}
        loop["self"] = loop
        assert payload_digest(loop) == payload_digest(loop)

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_fold_is_pinned(self, name):
        """The fold's exact bytes, one pin per kind of value: the per-type
        fold plans must reproduce them under every hash seed.  (No class
        object is pinned — its ``repr`` embeds an address.)"""
        assert payload_digest(pinned_payloads()[name]) == PINNED_DIGESTS[name]


def run_standard(**overrides):
    """One standard-schedule scenario at the pinned seed, traced."""
    config = replace(fast_config(), **overrides)
    result = run_scenario(SEED, standard_schedule(), config=config, trace=True)
    trace = "\n".join(f"{t:.9f} {label}"
                      for t, label in result.env.simulator.trace)
    return result, trace + "\n" + state_digest(result.env)


@pytest.fixture(scope="module")
def baseline():
    return run_standard()


class TestScenarioEquivalence:
    def test_sanitize_is_pure_observation(self, baseline):
        """Full standard schedule with sanitize on: passes, and the trace +
        final state digest are byte-identical to the plain run."""
        plain_result, plain_fingerprint = baseline
        sanitized_result, sanitized_fingerprint = run_standard(sanitize=True)
        assert plain_result.passed, plain_result.failures
        assert sanitized_result.passed, sanitized_result.failures
        assert sanitized_fingerprint == plain_fingerprint

    def test_perturbed_flush_order_still_passes_every_checker(self, baseline):
        """Reversed flush order is a different (valid) deterministic
        execution: all checkers hold, and the trace differs from the
        baseline — proof the perturbation actually reordered something."""
        _, plain_fingerprint = baseline
        perturbed_result, perturbed_fingerprint = run_standard(
            sanitize=True, perturb_order=True)
        assert perturbed_result.passed, perturbed_result.failures
        assert perturbed_fingerprint != plain_fingerprint
