"""Per-rule fixture pairs: a known violation and a known-clean sibling.

Every violation fixture pins the *exact* line (and rule code) the
analyzer must report — localization is the tool's whole point — and every
clean fixture is the idiomatic fix for the same shape, so a rule that
starts crying wolf on good code fails here before it fails the tree.
"""

import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.engine import all_rules


def run_rule(code, source, path="src/repro/example.py"):
    """Lint ``source`` with a single rule; returns its findings."""
    (rule,) = [rule for rule in all_rules() if rule.code == code]
    report = lint_source(textwrap.dedent(source), path=path, rules=[rule])
    return report.findings


def locations(findings):
    return [(finding.code, finding.line) for finding in findings]


class TestRL001BuiltinHashRouting:
    def test_hash_modulo_routing_is_flagged_at_line(self):
        findings = run_rule("RL001", """\
            def route(nodes, key):
                return nodes[hash(key) % len(nodes)]
            """)
        assert locations(findings) == [("RL001", 2)]

    def test_hash_as_sort_key_is_flagged(self):
        findings = run_rule("RL001", """\
            def order(peers):
                return sorted(peers, key=lambda p: hash(p))
            """)
        assert locations(findings) == [("RL001", 2)]

    def test_dunder_hash_and_equality_probes_are_clean(self):
        findings = run_rule("RL001", """\
            class Lattice:
                def __hash__(self):
                    return hash(("Lattice", self.value))

            def assert_hash_stable(a, b):
                assert hash(a) == hash(b)
            """)
        assert findings == []

    def test_stable_digest_routing_is_clean(self):
        findings = run_rule("RL001", """\
            from repro.storage.ring import stable_digest

            def route(nodes, key):
                return nodes[stable_digest(key) % len(nodes)]
            """)
        assert findings == []


class TestRL002DirectNetworkSend:
    def test_network_send_outside_cluster_is_flagged(self):
        findings = run_rule("RL002", """\
            def gossip(self, peer, payload):
                self.network.send(self.node_id, peer, "gossip", payload,
                                  size_bytes=64)
            """, path="src/repro/storage/kvs.py")
        assert locations(findings) == [("RL002", 2)]

    def test_bare_net_receiver_is_flagged(self):
        findings = run_rule("RL002", """\
            def probe(net, a, b):
                net.send(a, b, "probe", "x", size_bytes=10)
            """, path="src/repro/consistency/paxos.py")
        assert locations(findings) == [("RL002", 2)]

    def test_cluster_layer_is_exempt(self):
        findings = run_rule("RL002", """\
            def ship(self, destination, envelope, size):
                self.network.send(self.node_id, destination, "mb", envelope,
                                  size_bytes=size)
            """, path="src/repro/cluster/transport.py")
        assert findings == []

    def test_node_transport_send_is_clean(self):
        findings = run_rule("RL002", """\
            def gossip(self, peer, payload):
                self.node.queue(peer, "gossip", payload, entries=3)
            """, path="src/repro/storage/kvs.py")
        assert findings == []

    @pytest.mark.parametrize("size", [
        "1024", "24 + 96 * 3", "wire_size(entries)", "size",
    ], ids=["literal", "literal-arithmetic", "wire-size", "variable"])
    def test_size_bytes_on_any_call_is_flagged_at_the_calls_line(self, size):
        findings = run_rule("RL002", f"""\
            def announce(node, peer, entries, size):
                node.send(peer, "hello", "hi",
                          size_bytes={size})
            """)
        assert locations(findings) == [("RL002", 2)]

    def test_one_suppression_covers_a_multi_line_probe(self):
        report = lint_source(textwrap.dedent("""\
            def probe(env):
                env.network.send(  # repro-lint: disable=RL002 -- raw probe
                    "a", "b", "probe", (),
                    size_bytes=400)
            """), path="tests/chaos/test_probe.py")
        assert report.findings == []


class TestRL004UnsortedIterationIntoSchedule:
    def test_set_iteration_into_queue_is_flagged(self):
        findings = run_rule("RL004", """\
            def fan_out(node, peers):
                for peer in set(peers):
                    node.queue(peer, "mb", "hi")
            """)
        assert locations(findings) == [("RL004", 2)]

    def test_dict_keys_iteration_into_send_is_flagged(self):
        findings = run_rule("RL004", """\
            def flush(node, stores):
                for key in stores.keys():
                    node.send(key, "mb", "x")
            """)
        assert locations(findings) == [("RL004", 2)]

    def test_set_union_feeding_schedule_label_is_flagged(self):
        findings = run_rule("RL004", """\
            def arm(sim, dirty, pending):
                for key in dirty | pending.keys():
                    sim.schedule(1.0, lambda: None, label=f"sync-{key}")
            """)
        assert locations(findings) == [("RL004", 2)]

    def test_set_comprehension_argument_to_broadcast_is_flagged(self):
        findings = run_rule("RL004", """\
            def replicate(node, peers):
                node.broadcast({p for p in peers}, "mb", "x")
            """)
        assert locations(findings) == [("RL004", 2)]

    def test_sorted_wrapper_is_clean(self):
        findings = run_rule("RL004", """\
            def fan_out(node, peers, stores):
                for peer in sorted(set(peers)):
                    node.queue(peer, "mb", "hi")
                for key in sorted(stores.keys()):
                    node.queue(key, "mb", "x")
            """)
        assert findings == []

    def test_pure_computation_over_a_set_is_clean(self):
        findings = run_rule("RL004", """\
            def census(peers):
                total = 0
                for peer in set(peers):
                    total += 1
                return total
            """)
        assert findings == []


class TestRL006NondeterminismInChaos:
    def test_random_import_in_chaos_module_is_flagged(self):
        findings = run_rule("RL006", """\
            import random
            """, path="src/repro/chaos/myworkload.py")
        assert locations(findings) == [("RL006", 1)]

    def test_from_time_import_in_chaos_module_is_flagged(self):
        findings = run_rule("RL006", """\
            from time import monotonic
            """, path="tests/chaos/test_wallclock.py")
        assert locations(findings) == [("RL006", 1)]

    def test_same_import_outside_chaos_is_clean(self):
        findings = run_rule("RL006", """\
            import random
            import time
            """, path="benchmarks/test_bench_example.py")
        assert findings == []


class TestRL007MutableDefaultArgument:
    def test_list_default_is_flagged(self):
        findings = run_rule("RL007", """\
            class Operator:
                def __init__(self, inputs=[]):
                    self.inputs = inputs
            """)
        assert locations(findings) == [("RL007", 2)]

    def test_dict_factory_kwonly_default_is_flagged(self):
        findings = run_rule("RL007", """\
            def fold(items, *, acc=dict()):
                return acc
            """)
        assert locations(findings) == [("RL007", 1)]

    def test_none_default_is_clean(self):
        findings = run_rule("RL007", """\
            class Operator:
                def __init__(self, inputs=None):
                    self.inputs = inputs if inputs is not None else []
            """)
        assert findings == []


class TestRetiredRules:
    def test_a_cadence_queue_without_a_flush_lints_clean(self):
        """RL008 is gone: ``Transport.queue`` binds a deferred flush whenever
        the queues were empty, so a tick-driven sender cannot strand a parcel
        and the shape RL008 flagged is no bug."""
        assert "RL008" not in {rule.code for rule in all_rules()}
        report = lint_source(textwrap.dedent("""\
            class GossipOperator:
                def on_tick(self):
                    for peer in self.peers:
                        self.transport.queue(peer, "gossip", {})
            """), path="src/repro/example.py")
        assert report.findings == []


class TestCombined:
    def test_one_snippet_can_violate_several_rules(self):
        report = lint_source(textwrap.dedent("""\
            def replicate(self, peers, payload):
                for peer in set(peers):
                    self.network.send(self.node_id, peer, "mb", payload,
                                      size_bytes=512)
            """), path="src/repro/storage/kvs.py")
        assert sorted(finding.code for finding in report.findings) == [
            "RL002", "RL004"]
