"""A host-cost gate that reads no clock: value folds per replicated put.

A client's put reaches all three replicas of its shard as one shared value
object, and each replica enters it into its ``DigestTree``.  Hashing the
entry folds the value (``transport.fold_payload``), the tree's one
O(value) step; the value remembers the entry it was given, so only the
first replica folds it and the other two reuse that entry.  The gate
counts the folds the tree makes under ``cProfile``, so a second per-replica
hash put back on the write path fails it on any host.
"""

import cProfile

from repro.cluster import Network, NetworkConfig, Simulator
from repro.cluster.transport import fold_payload
from repro.lattices import LWWRegister
from repro.storage import KVSClient, LatticeKVS
from repro.storage import antientropy
from repro.storage.antientropy import DigestTree

PUTS = 50
#: Reads 1.0 on Python 3.11 (3.0 when every replica hashed the entry).
FOLDS_PER_PUT_CEILING = 1.0


def tree_folds_per_put(puts: int = PUTS) -> float:
    sim = Simulator(seed=5)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
    kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=3,
                     gossip_interval=20.0)
    kvs.settle(50.0)
    client = KVSClient("client-1", sim, net, kvs)
    profile = cProfile.Profile()
    profile.enable()
    for index in range(puts):
        client.put(f"key-{index}", LWWRegister(1.0, index, "writer"))
    kvs.settle(200.0)
    profile.disable()
    replicas = kvs.shards[0]
    for replica in replicas:
        assert len(replica.store) == puts
        assert replica.tree == DigestTree.from_store(replica.store)
    folds = sum(call.callcount for entry in profile.getstats()
                if getattr(entry.code, "co_filename", "") == antientropy.__file__
                for call in entry.calls or ()
                if call.code is fold_payload.__code__)
    return folds / puts


def test_a_replicated_put_folds_its_value_once():
    assert tree_folds_per_put() <= FOLDS_PER_PUT_CEILING
