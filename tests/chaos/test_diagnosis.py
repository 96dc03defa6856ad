"""Directed tests for the fault localizer, on hand-built observation windows.

The sweeps score :mod:`repro.chaos.diagnosis` against whole scenarios; these
pin two of its rules on the smallest windows that exercise them, because
both used to lean on background chatter a quieter protocol no longer sends.
"""

from types import SimpleNamespace

from repro.chaos.diagnosis import diagnose, identifiable_truth
from repro.chaos.history import History
from repro.cluster import NetworkConfig
from repro.cluster.metrics import LinkObservatory, MetricsRegistry

PRISTINE = 1.25  # base_delay 1.0 + jitter 0.5 / 2
WIDTH = 20.0


def observe(observatory, bucket, source, destination, latency=PRISTINE, messages=1):
    """``messages`` sent on the link in ``bucket``, all delivered."""
    window = observatory.window_of(source, destination, bucket * WIDTH)
    window.sent_messages += messages
    window.delivered_messages += messages
    window.latency_total += latency * messages
    window.latency_max = max(window.latency_max, latency)


def chatter(observatory, buckets, latency=PRISTINE):
    """Two healthy pairs talking both ways: the world keeps turning."""
    for bucket in buckets:
        for source, destination in (("a", "b"), ("b", "a"), ("x", "y"), ("y", "x")):
            observe(observatory, bucket, source, destination, latency)


def env_for(observatory, ground_truth=()):
    """The slice of a ``ChaosEnv`` the localizer reads."""
    return SimpleNamespace(
        network=SimpleNamespace(observatory=observatory, metrics=MetricsRegistry(),
                                domains=dict,
                                config=NetworkConfig(base_delay=1.0, jitter=0.5)),
        client_ids=list, ground_truth=list(ground_truth))


def blamed(env, kind):
    return {blame.subject for blame in diagnose(env, History()).blames
            if blame.kind == kind}


class TestNodeSilent:
    def build(self):
        observatory = LinkObservatory(WIDTH)
        chatter(observatory, range(2, 8))
        # ``origin`` ships a window late in bucket 3; the ack it earns lands
        # in bucket 4, and then origin has nothing to say for 40 ticks.
        observe(observatory, 3, "origin", "peer")
        observe(observatory, 4, "peer", "origin")
        # ``dead`` spoke in bucket 3 too, then crashed; a node it had not
        # just written to keeps probing it and is never answered.
        observe(observatory, 3, "dead", "peer")
        observe(observatory, 4, "a", "dead")
        observe(observatory, 5, "a", "dead")
        return observatory

    def test_answered_then_idle_is_not_silent_but_probed_and_mute_is(self):
        env = env_for(self.build())
        assert blamed(env, "node-silent") == {("node", "dead")}

    def test_identifiability_counts_the_same_probes(self):
        """Scoring shares the rule's field: a crash during which the node
        was only sent an answer left no trace an observer could use."""
        crash = {"kind": "CrashRecover", "start": 4 * WIDTH, "end": 6 * WIDTH}
        env = env_for(self.build(), [
            dict(crash, subject=("node", "origin")),
            dict(crash, subject=("node", "dead"))])
        assert identifiable_truth(env, History()) == {("node", "dead")}


class TestNodeSlow:
    def build(self, background):
        """``r`` and a client exchange slow messages in bucket 3; the other
        four sampled links read ``background``."""
        observatory = LinkObservatory(WIDTH)
        chatter(observatory, (2, 4))
        observe(observatory, 3, "c", "r", latency=6.0)
        observe(observatory, 3, "r", "c", latency=6.0)
        observe(observatory, 3, "r", "d", latency=6.0)
        for (source, destination), latency in zip(
                (("p", "q"), ("a", "b"), ("b", "a"), ("x", "y")), background):
            observe(observatory, 3, source, destination, latency)
        return env_for(observatory)

    def test_slow_links_in_a_quiet_bucket_convict_their_node(self):
        env = self.build(background=(PRISTINE,) * 4)
        assert blamed(env, "fabric-latency") == set()
        assert ("node", "r") in blamed(env, "node-slow")

    def test_the_same_readings_inside_a_fabric_latency_bucket_do_not(self):
        """Most of the bucket's links are slow, so the fabric is blamed — yet
        the links *not* touching ``r`` have a pristine median (one slow,
        three fast), the leave-one-out baseline that used to convict it."""
        env = self.build(background=(6.0, PRISTINE, PRISTINE, PRISTINE))
        assert blamed(env, "fabric-latency") == {("fabric",)}
        assert blamed(env, "node-slow") == set()
