"""Tests for the deterministic consistent-hash ring."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.ring import (
    HashRing,
    encoded_digest,
    stable_digest,
    stable_key_bytes,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Every type ``stable_key_bytes`` encodes, nested through tuples and
#: frozensets.
_MIXED_KEYS = st.recursive(
    st.one_of(st.text(), st.binary(), st.integers(), st.booleans(),
              st.floats(), st.none()),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(children, max_size=4),
    ),
    max_leaves=12,
)


class TestStableDigest:
    def test_known_values_locked_across_releases(self):
        # These constants pin the digest function itself: if they change,
        # every deployed ring would re-route its whole keyspace.
        assert stable_digest("key-1") == 9059984314804397568
        assert stable_digest(("user", 42)) == 5769254679008417703
        assert stable_digest(0) == 8859566273657638067
        assert stable_digest(b"key-1") != stable_digest("key-1")

    def test_type_tags_distinguish_lookalikes(self):
        values = ["1", 1, 1.0, (1,), None, b"1"]
        digests = {stable_digest(value) for value in values}
        assert len(digests) == len(values)
        # bool would collide with int without its tag.
        assert stable_key_bytes(True) != stable_key_bytes(1)

    def test_key_encodings_locked(self):
        """The canonical bytes behind every digest: four lookalikes encode
        four ways, and a ``str`` subclass encodes exactly as its ``str``
        (the ``type(key) is str`` fast path must not change that)."""

        class Name(str):
            pass

        assert stable_key_bytes(True) == b"t"
        assert stable_key_bytes(1) == b"i1"
        assert stable_key_bytes(1.0) == b"d1.0"
        assert stable_key_bytes("1") == b"s1"
        assert stable_key_bytes(Name("key-1")) == b"skey-1"
        assert stable_key_bytes("key-1") == b"skey-1"
        assert stable_digest(Name("key-1")) == stable_digest("key-1")

    @settings(max_examples=300, deadline=None)
    @given(_MIXED_KEYS)
    def test_digest_is_blake2_of_the_key_bytes(self, key):
        """Every digest is one 8-byte ``blake2b`` over the canonical bytes,
        whichever entry point computes it."""
        encoded = stable_key_bytes(key)
        reference = int.from_bytes(
            hashlib.blake2b(encoded, digest_size=8).digest(), "big")
        assert stable_digest(key) == encoded_digest(encoded) == reference

    def test_hashing_fresh_keys_retains_nothing(self):
        """No process-wide digest state: hashing 50k never-seen keys retains
        at most 4 KiB of ``tracemalloc`` memory (457 B on Python 3.11).
        Counts bytes, reads no clock."""
        keys = [f"fresh-key-{i}" for i in range(50_000)]
        tracemalloc.start()
        try:
            for key in keys:
                stable_digest(key)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 4096, held

    def test_composite_keys_encode_recursively(self):
        assert stable_digest(("user", 42)) == stable_digest(("user", 42))
        assert stable_digest(("user", 42)) != stable_digest(("user", 43))
        assert stable_digest(frozenset({1, 2})) == stable_digest(frozenset({2, 1}))

    def test_process_dependent_keys_rejected(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_digest_identical_across_hashseeds(self):
        """The digest must not depend on PYTHONHASHSEED (unlike builtin hash)."""
        script = (
            "from repro.storage.ring import stable_digest\n"
            "print([stable_digest(f'key-{i}') for i in range(50)])\n"
        )
        outputs = []
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestHashRing:
    def test_routes_every_key_to_a_member(self):
        ring = HashRing(range(4))
        for i in range(100):
            assert ring.node_for(f"key-{i}") in ring

    def test_balance_with_virtual_nodes(self):
        ring = HashRing(range(8), vnodes=64)
        counts = ring.distribution([f"key-{i}" for i in range(4000)])
        assert min(counts.values()) > 0
        # Virtual nodes keep the spread within a small factor of uniform.
        assert max(counts.values()) < 4 * (4000 / 8)

    def test_add_node_moves_minimal_keys(self):
        keys = [f"key-{i}" for i in range(2000)]
        ring = HashRing(range(4))
        before = {key: ring.node_for(key) for key in keys}
        ring.add_node(4)
        moved = sum(1 for key in keys if ring.node_for(key) != before[key])
        # Consistent hashing: ~1/5 of keys move to the new node, and no key
        # moves between two old nodes.
        assert moved < len(keys) * 0.4
        for key in keys:
            if ring.node_for(key) != before[key]:
                assert ring.node_for(key) == 4

    def test_remove_node_only_moves_its_keys(self):
        keys = [f"key-{i}" for i in range(2000)]
        ring = HashRing(range(5))
        before = {key: ring.node_for(key) for key in keys}
        ring.remove_node(2)
        for key in keys:
            if before[key] != 2:
                assert ring.node_for(key) == before[key]
            else:
                assert ring.node_for(key) != 2

    def test_nodes_for_returns_distinct_preference_list(self):
        ring = HashRing(["a", "b", "c", "d"])
        preferred = ring.nodes_for("some-key", 3)
        assert len(preferred) == 3
        assert len(set(preferred)) == 3
        assert preferred[0] == ring.node_for("some-key")
        # Asking for more nodes than exist returns them all.
        assert sorted(ring.nodes_for("some-key", 10)) == ["a", "b", "c", "d"]

    def test_membership_errors(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(KeyError):
            ring.remove_node("missing")
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        with pytest.raises(LookupError):
            HashRing().node_for("key")

    def test_nodes_for_count_edges(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.nodes_for("key", 0) == []
        assert ring.nodes_for("key", 1) == [ring.node_for("key")]
        with pytest.raises(ValueError):
            ring.nodes_for("key", -1)

    def test_ring_routing_identical_across_hashseeds(self):
        """Shard assignment is byte-identical under different PYTHONHASHSEED."""
        script = (
            "from repro.storage.ring import HashRing\n"
            "ring = HashRing(range(8), vnodes=64)\n"
            "print([ring.node_for(f'key-{i}') for i in range(500)])\n"
        )
        outputs = []
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
