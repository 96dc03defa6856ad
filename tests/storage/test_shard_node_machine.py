"""``ShardNode``'s derived state against from-scratch oracles, through the KVS.

A 2-shard x 2-replica :class:`LatticeKVS` is driven through puts, reads,
reshards up and down, crashes, recoveries with and without state loss and
time passing.  After every step each live replica's digest tree equals a
rebuild of its store, its owned set and change log name only stored keys,
and no replica's stamp counter ever runs backwards.  A settle with every
replica back up leaves the replicas of each shard holding equal stores.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import Network, NetworkConfig, Simulator
from repro.lattices import SetUnion
from repro.storage import LatticeKVS
from repro.storage.antientropy import DigestTree

GOSSIP_INTERVAL = 10.0
FULL_SYNC_EVERY = 3
#: Long enough for every go-back and several digest exchanges per peer.
SETTLE_HORIZON = 20 * GOSSIP_INTERVAL * FULL_SYNC_EVERY

KEYS = st.sampled_from([f"k{index}" for index in range(12)])
#: (shard, replica) picks, reduced modulo whatever the KVS has right now.
PICK = st.tuples(st.integers(0, 3), st.integers(0, 1))


class ShardNodeMachine(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=7)
        self.net = Network(self.sim, NetworkConfig(base_delay=1.0, jitter=0.5))
        self.kvs = LatticeKVS(self.sim, self.net, shard_count=2,
                              replication_factor=2,
                              gossip_interval=GOSSIP_INTERVAL,
                              full_sync_every=FULL_SYNC_EVERY)
        #: node id -> the highest log ``seq`` seen, for every replica ever built.
        self.seqs = {}
        self.note_seqs()

    def replica(self, pick):
        shard, replica = pick
        replicas = self.kvs.shards[shard % len(self.kvs.shards)]
        return replicas[replica % len(replicas)]

    def note_seqs(self):
        for replica in self.kvs.all_nodes():
            self.seqs[replica.node_id] = max(self.seqs.get(replica.node_id, 0),
                                             replica.change_log.seq)

    @rule(key=KEYS, element=st.integers(0, 5))
    def put(self, key, element):
        self.kvs.put(key, SetUnion({element}))

    @rule(key=KEYS)
    def get(self, key):
        value = self.kvs.get(key)
        assert value is None or any(value is replica.store.get(key)
                                    for replica in self.kvs.replicas_for(key))

    @rule(pick=PICK, key=KEYS)
    def value_of(self, pick, key):
        replica = self.replica(pick)
        assert replica.value_of(key) is replica.store.get(key)

    @rule(ticks=st.sampled_from([1.0, 5.0, GOSSIP_INTERVAL, 2.5 * GOSSIP_INTERVAL]))
    def run(self, ticks):
        self.sim.run(until=self.sim.now + ticks)

    @rule(shards=st.integers(1, 3))
    def reshard(self, shards):
        self.kvs.reshard(shards)

    @rule(pick=PICK)
    def crash(self, pick):
        self.replica(pick).crash()

    @rule(pick=PICK, lose_state=st.booleans())
    def recover(self, pick, lose_state):
        self.replica(pick).recover(lose_state=lose_state)

    @rule()
    def settle(self):
        for replica in self.kvs.all_nodes():
            if not replica.alive:
                replica.recover()
        self.kvs.settle(SETTLE_HORIZON)
        for shard in self.kvs.shards:
            first, *others = shard
            for other in others:
                assert other.store == first.store, (first.node_id, other.node_id)

    @invariant()
    def derived_state_matches_the_store(self):
        for replica in self.kvs.all_nodes():
            if not replica.alive:
                continue
            assert replica.tree == DigestTree.from_store(replica.store), replica.node_id
            assert replica.change_log.stamps.keys() <= replica.store.keys(), replica.node_id

    @invariant()
    def stamps_never_run_backwards(self):
        for replica in self.kvs.all_nodes():
            assert replica.change_log.seq >= self.seqs.get(replica.node_id, 0), replica.node_id
        self.note_seqs()


ShardNodeMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)
TestShardNodeMachine = ShardNodeMachine.TestCase
