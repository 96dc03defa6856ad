"""Tests for the deterministic consistent-hash ring."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.storage.ring import (
    HashRing,
    digest_cache_stats,
    stable_digest,
    stable_key_bytes,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


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

    def test_memo_survives_50k_key_churn(self):
        """LRU eviction keeps the memo warm at 50k-key working sets.

        The old cache cleared itself wholesale at 8192 entries, so any loop
        over a 50k-key store (a digest-tree rebuild, a routing sweep)
        re-hashed the entire keyspace on every pass.  With one-at-a-time
        LRU eviction and a 65536 cap, a second pass over the same 50k keys
        in the same order must be nearly all hits.
        """
        keys = [f"churn-key-{i}" for i in range(50_000)]
        for key in keys:
            stable_digest(key)
        before = digest_cache_stats()
        for key in keys:
            stable_digest(key)
        after = digest_cache_stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        assert hits / len(keys) > 0.99, (hits, misses)

    def test_memo_evicts_one_entry_at_a_time(self):
        """Overflow evicts the single oldest entry, never the whole memo."""
        from repro.storage import ring

        ring._digest_cache.clear()
        for i in range(ring._DIGEST_CACHE_MAX + 100):
            stable_digest(("evict-probe", i))
        assert len(ring._digest_cache) == ring._DIGEST_CACHE_MAX
        # The newest entries survived; the oldest were the ones evicted.
        assert ring.stable_key_bytes(("evict-probe", 50)) not in ring._digest_cache
        newest = ring.stable_key_bytes(
            ("evict-probe", ring._DIGEST_CACHE_MAX + 99))
        assert newest in ring._digest_cache

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
