"""History-recording workload generators for chaos scenarios.

Each workload drives one layer of the stack through its *public* interface
while the nemesis runs, recording an operation history for the checkers:

* :class:`KVSWorkload` — lattice puts/gets through :class:`KVSClient` over
  the simulated network (session guarantees, convergence, CALM latency);
* :class:`CartWorkload` — the paper's Dynamo-style shopping cart run as
  lattice traffic over the KVS: 2P-set adds/removes plus a client-sealed
  checkout manifest (coordination-free finalisation under fire);
* :class:`CausalWorkload` — causal broadcast peers (happens-before safety);
* :class:`PaxosWorkload` — a consensus log with leader failover
  (single-decree safety: no two replicas decide different values).

Determinism: every workload derives its own ``random.Random`` from the
scenario seed and precomputes its entire operation plan at construction, so
the plan is identical whatever the fault schedule — which is what lets the
shrinker remove faults without perturbing the workload.
"""

from __future__ import annotations

import random  # repro-lint: disable=RL006 -- only seeded Random(env.seed); plans are a pure function of the seed
from typing import Hashable, Optional

from repro.chaos.history import History, Op
from repro.chaos.nemesis import ChaosEnv
from repro.cluster.network import Message
from repro.consistency.causal import CausalBroadcast, CausalMessage
from repro.consistency.paxos import ConsensusLog
from repro.lattices import BoolOr, SetUnion, TwoPhaseSet
from repro.storage import KVSClient


class RecordingKVSClient(KVSClient):
    """A :class:`KVSClient` that records invoke/ok events into a history.

    Crash semantics: killing the client freezes every in-flight op as
    ``PENDING`` — the request may already be on the wire and a lattice put
    is idempotent replica-side, so the outcome is permanently indeterminate
    (Jepsen ``:info``), never a clean failure.  Ops carry the client's
    ``incarnation`` so checkers can tell the dead session's ops from the
    replacement identity's.
    """

    def __init__(self, node_id, simulator, network, kvs, history: History) -> None:
        super().__init__(node_id, simulator, network, kvs)
        self.history = history
        self._inflight: dict[int, Op] = {}

    def put_recorded(self, key: Hashable, value, action: str = "put") -> Optional[Op]:
        if not self.alive:
            return None  # a crashed client issues nothing
        op = self.history.invoke(self.node_id, action, key, value,
                                 at=self.simulator.now)
        op.info["incarnation"] = self.incarnation
        self._inflight[self.put(key, value)] = op
        return op

    def get_recorded(self, key: Hashable) -> Optional[Op]:
        if not self.alive:
            return None
        op = self.history.invoke(self.node_id, "get", key, at=self.simulator.now)
        op.info["incarnation"] = self.incarnation
        self._inflight[self.get(key)] = op
        return op

    def crash(self) -> None:
        # Mark before the transport drops its pending RPC table: once the
        # client is down no response can ever be observed, so every
        # in-flight op's outcome is frozen as indeterminate.
        for request_id in sorted(self._inflight):
            self.history.mark_pending(self._inflight[request_id],
                                      at=self.simulator.now)
        self._inflight.clear()
        super().crash()

    def _on_put_ack(self, message: Message) -> None:
        super()._on_put_ack(message)
        op = self._inflight.pop(message.payload["request_id"], None)
        if op is not None:
            self.history.complete(op, at=self.simulator.now,
                                  replica=message.payload["replica"])

    def _on_get_reply(self, message: Message) -> None:
        super()._on_get_reply(message)
        payload = message.payload
        op = self._inflight.pop(payload["request_id"], None)
        if op is not None:
            self.history.complete(op, result=self.completed_gets[payload["request_id"]],
                                  at=self.simulator.now, replica=payload["replica"])


class KVSWorkload:
    """Concurrent clients issuing lattice puts and gets over hot keys."""

    def __init__(self, env: ChaosEnv, history: History, *, clients: int = 2,
                 keys: int = 6, ops_per_client: int = 24, interval: float = 6.0,
                 start: float = 5.0) -> None:
        self.env = env
        self.history = history
        rng = random.Random(env.seed * 7919 + 11)
        self.clients = [
            RecordingKVSClient(f"chaos-kv-client-{i}", env.simulator,
                               env.network, env.kvs, history)
            for i in range(clients)
        ]
        env.register_clients(self.clients)
        # Precomputed plan: (client_index, fire_time, action, key, element).
        self.plan: list[tuple[int, float, str, str, str]] = []
        for i in range(clients):
            for j in range(ops_per_client):
                fire = start + j * interval + i * (interval / (clients + 1))
                key = f"kv-{rng.randrange(keys)}"
                action = "put" if rng.random() < 0.6 else "get"
                self.plan.append((i, fire, action, key, f"c{i}op{j}"))

    def start(self) -> None:
        for client_index, fire, action, key, element in self.plan:
            client = self.clients[client_index]
            if action == "put":
                self.env.simulator.schedule_at(
                    fire,
                    lambda c=client, k=key, e=element: c.put_recorded(k, SetUnion({e})),
                    label=f"workload kv-put {key}")
            else:
                self.env.simulator.schedule_at(
                    fire, lambda c=client, k=key: c.get_recorded(k),
                    label=f"workload kv-get {key}")

    def end_time(self) -> float:
        return max((fire for _, fire, _, _, _ in self.plan), default=0.0)


class CartWorkload:
    """The shopping-cart app as KVS traffic: 2P-set carts + sealed checkout.

    Mirrors ``repro.apps.shopping_cart``'s data design (a
    :class:`TwoPhaseSet` of items per session, a :class:`BoolOr` seal, a
    :class:`SetUnion` order manifest) but runs it against the replicated
    KVS through real clients, so adds/removes/checkout race with the
    nemesis.  The seal manifest is computed Conway-style at checkout time
    from the adds the client saw *acknowledged* — the client ships the
    manifest it can vouch for, and convergence finalises it replica-side.
    """

    def __init__(self, env: ChaosEnv, history: History, *, sessions: int = 2,
                 ops_per_session: int = 10, interval: float = 7.0,
                 start: float = 8.0) -> None:
        self.env = env
        self.history = history
        rng = random.Random(env.seed * 6007 + 23)
        self.sessions = list(range(sessions))
        self.clients = [
            RecordingKVSClient(f"chaos-cart-client-{s}", env.simulator,
                               env.network, env.kvs, history)
            for s in self.sessions
        ]
        self.plan: list[tuple[int, float, str, str]] = []
        self.seal_times: list[tuple[int, float]] = []
        for s in self.sessions:
            added: list[str] = []
            for j in range(ops_per_session):
                fire = start + j * interval + s * (interval / (sessions + 1))
                if added and rng.random() < 0.25:
                    item = added[rng.randrange(len(added))]
                    self.plan.append((s, fire, "remove", item))
                else:
                    item = f"item-{s}-{j}"
                    added.append(item)
                    self.plan.append((s, fire, "add", item))
            self.seal_times.append((s, start + ops_per_session * interval + 5.0 + s))

    @staticmethod
    def cart_key(session: int) -> tuple:
        return ("cart", session)

    @staticmethod
    def order_key(session: int) -> tuple:
        return ("order", session)

    @staticmethod
    def sealed_key(session: int) -> tuple:
        return ("sealed", session)

    def start(self) -> None:
        for session, fire, action, item in self.plan:
            client = self.clients[session]
            if action == "add":
                value = TwoPhaseSet(added={item})
            else:
                value = TwoPhaseSet(removed={item})
            self.env.simulator.schedule_at(
                fire,
                lambda c=client, s=session, v=value, a=action, i=item:
                    self._record_cart_op(c, s, a, i, v),
                label=f"workload cart-{action}")
        for session, fire in self.seal_times:
            self.env.simulator.schedule_at(
                fire, lambda s=session: self._seal(s),
                label=f"workload cart-seal-{session}")

    def _record_cart_op(self, client: RecordingKVSClient, session: int,
                        action: str, item: str, value: TwoPhaseSet) -> None:
        op = client.put_recorded(self.cart_key(session), value, action=action)
        if op is None:
            return
        op.info["item"] = item
        op.info["session"] = session

    def _seal(self, session: int) -> None:
        """Seal with the manifest of acknowledged adds minus any removes."""
        client = self.clients[session]
        acked_adds = {op.info["item"]
                      for op in self.history.ops_for(client=client.node_id, action="add")
                      if op.ok}
        removed = {op.info["item"]
                   for op in self.history.ops_for(client=client.node_id, action="remove")}
        manifest = frozenset(acked_adds - removed)
        op = client.put_recorded(self.order_key(session), SetUnion(manifest),
                                 action="seal")
        if op is None:
            return
        op.info["session"] = session
        op.info["manifest"] = manifest
        client.put_recorded(self.sealed_key(session), BoolOr(True), action="seal")

    def end_time(self) -> float:
        return max((fire for _, fire in self.seal_times), default=0.0)


class CausalWorkload:
    """Causal broadcast peers exchanging messages while the nemesis runs."""

    def __init__(self, env: ChaosEnv, history: History, *, nodes: int = 3,
                 broadcasts_per_node: int = 5, interval: float = 9.0,
                 start: float = 6.0) -> None:
        self.env = env
        self.history = history
        node_ids = [f"chaos-causal-{i}" for i in range(nodes)]
        self.deliveries: dict[Hashable, list[CausalMessage]] = {
            node_id: [] for node_id in node_ids}
        self.nodes = [
            CausalBroadcast(node_id, env.simulator, env.network, peers=node_ids,
                            deliver=self.deliveries[node_id].append)
            for node_id in node_ids
        ]
        env.register_crashable(self.nodes)
        self.plan = [
            (i, start + j * interval + i * (interval / (nodes + 1)), f"m{i}.{j}")
            for i in range(nodes) for j in range(broadcasts_per_node)
        ]

    def start(self) -> None:
        for node_index, fire, payload in self.plan:
            node = self.nodes[node_index]
            self.env.simulator.schedule_at(
                fire, lambda n=node, p=payload: self._broadcast(n, p),
                label="workload causal-bcast")

    def _broadcast(self, node: CausalBroadcast, payload: str) -> None:
        if not node.alive:
            return  # a crashed peer is silent, it does not queue broadcasts
        op = self.history.invoke(node.node_id, "bcast", key=payload,
                                 at=self.env.simulator.now)
        node.broadcast(payload)
        # Local delivery is immediate (a node's own messages are causally
        # first), so the op completes at invocation — coordination-free.
        self.history.complete(op, at=self.env.simulator.now)

    def end_time(self) -> float:
        return max((fire for _, fire, _ in self.plan), default=0.0)


class PaxosWorkload:
    """A consensus log under fire: proposals, crashes, explicit failover."""

    def __init__(self, env: ChaosEnv, history: History, *, replicas: int = 3,
                 proposals: int = 6, interval: float = 12.0,
                 start: float = 10.0) -> None:
        self.env = env
        self.history = history
        self.applied: dict[Hashable, list[tuple[int, object]]] = {}
        replica_ids = [f"chaos-paxos-{i}" for i in range(replicas)]

        def apply_entry(replica_id, slot, value):
            self.applied.setdefault(replica_id, []).append((slot, value))

        self.log = ConsensusLog(env.simulator, env.network, replica_ids,
                                apply_entry=apply_entry)
        env.register_crashable(list(self.log.replicas.values()))
        self.plan = [(start + j * interval, f"decree-{j}") for j in range(proposals)]

    def start(self) -> None:
        for fire, value in self.plan:
            self.env.simulator.schedule_at(
                fire, lambda v=value: self._propose(v),
                label="workload paxos-propose")

    def _propose(self, value: str) -> None:
        leader = self.log.leader
        if leader is None:
            # No live leader: campaign on the first live replica, then let
            # the next proposal tick retry.  (Failing over is coordination —
            # which is exactly the contrast the CALM checker draws.)
            for replica_id in sorted(self.log.replicas, key=str):
                replica = self.log.replicas[replica_id]
                if replica.alive:
                    replica.campaign()
                    break
            return
        op = self.history.invoke(leader.node_id, "propose", key=value,
                                 at=self.env.simulator.now)

        def on_chosen(slot, chosen_value, op=op):
            self.history.complete(op, result=(slot, chosen_value),
                                  at=self.env.simulator.now)

        leader.propose(value, on_chosen)

    def end_time(self) -> float:
        return max((fire for fire, _ in self.plan), default=0.0)
