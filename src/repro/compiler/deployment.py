"""Instantiating a deployment plan on the simulated cluster.

A :class:`HydroDeployment` turns a :class:`~repro.compiler.plan.DeploymentPlan`
into running simulated infrastructure:

* one :class:`~repro.availability.replication.ReplicaNode` per node named in
  the plan's placements, in the zone the plan records for it (a plan
  compiled without a topology records none: the ``Node`` default), each
  hosting a full program replica that converges through gossip;
* a :class:`~repro.availability.proxy.ReplicaProxy` fronting every endpoint;
* for endpoints whose plan demands coordination, a
  :class:`~repro.consistency.paxos.ConsensusLog` with a log node beside each
  replica, whose entries are handler invocations fed to every replica in
  slot order (state machine replication), and replayed to a replica that
  missed some.

The deployment exposes ``invoke`` for clients and enough metrics (message
counts, latencies, availability) for the E2/E6/E11 benchmarks to compare
coordination-free against coordinated execution and Hydro against FaaS.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Hashable, Optional

from repro.availability.proxy import ReplicaProxy
from repro.availability.replication import ORDERED_REPLAYED, RESULT_KEY, ReplicaNode
from repro.cluster.metrics import MetricsRegistry
from repro.cluster.network import Network
from repro.cluster.node import DEFAULT_DOMAIN
from repro.cluster.simulator import Simulator
from repro.compiler.plan import DeploymentPlan
from repro.consistency.paxos import ConsensusLog, PaxosReplica
from repro.core.program import HydroProgram

#: Ticks between two gossip rounds of every program replica.
GOSSIP_INTERVAL = 10.0


class HydroDeployment:
    """A running (simulated) deployment of one HydroLogic program."""

    def __init__(self, program: HydroProgram, plan: DeploymentPlan,
                 simulator: Simulator, network: Network) -> None:
        self.program = program
        self.plan = plan
        self.simulator = simulator
        self.network = network
        self.metrics = MetricsRegistry()
        self._ids = itertools.count()
        self.responses: dict[Hashable, Any] = {}

        # One program replica per distinct node named anywhere in the plan.
        replica_ids = list(dict.fromkeys(
            node_id for endpoint_plan in plan.endpoints.values()
            for node_id in endpoint_plan.replicas)) or ["replica-0"]
        self.replica_ids = replica_ids
        self.replicas: dict[Hashable, ReplicaNode] = {
            node_id: ReplicaNode(node_id, simulator, network, program,
                                 domain=plan.zones.get(node_id, DEFAULT_DOMAIN),
                                 gossip_interval=GOSSIP_INTERVAL, peers=replica_ids)
            for node_id in replica_ids
        }

        # Client proxy for coordination-free endpoints.
        self.proxy = ReplicaProxy("proxy", simulator, network, metrics=self.metrics)
        for handler, endpoint_plan in plan.endpoints.items():
            replicas = endpoint_plan.replicas or replica_ids
            self.proxy.register_endpoint(handler, list(replicas))

        # Consensus log for coordinated endpoints (one log shared by all of
        # them): replica ``n``'s log node is ``n-log``, in ``n``'s zone.
        self.log: Optional[ConsensusLog] = None
        self.consensus: dict[Hashable, PaxosReplica] = {}
        if plan.coordinated_endpoints():
            log_ids = {f"{node_id}-log": node_id for node_id in replica_ids}
            self.log = ConsensusLog(
                simulator, network, list(log_ids),
                apply_entry=lambda log_id, slot, _value: self._feed(log_ids[log_id], slot),
                domains={log_id: self.replicas[node_id].domain
                         for log_id, node_id in log_ids.items()})
            for log_id, node_id in log_ids.items():
                self.consensus[node_id] = self.log.replicas[log_id]
                self.replicas[node_id].catch_up = partial(self._catch_up, node_id)

    # -- coordinated application -------------------------------------------------------

    def _feed(self, node_id: Hashable, applying: int = -1) -> None:
        """Feed a replica, in order, every slot its log has applied and it
        has not — the log's apply hook (for slot ``applying``), and its replay."""
        replica, log = self.replicas[node_id], self.consensus[node_id]
        while replica.alive and replica.ordered_upto < log.applied_up_to:
            slot = replica.ordered_upto + 1
            value = log.chosen[slot]
            status, result = replica.apply_ordered(slot, value["handler"], value["args"])
            self.network.metrics.increment(ORDERED_REPLAYED, slot != applying)
            # The first replica to apply the entry answers: the leader's own
            # whenever it is alive, any survivor when it is not.
            self.responses.setdefault(
                value["token"], {"status": status, RESULT_KEY[status]: result})

    def _catch_up(self, node_id: Hashable, peer: Hashable, slot: int) -> None:
        """Replay to a replica what its own log holds; up to ``slot``, have
        the log learn from ``peer``'s what it is missing itself."""
        self._feed(node_id)
        if self.replicas[node_id].ordered_upto < slot:
            self.consensus[node_id].learn(f"{peer}-log")

    @property
    def consensus_leader(self) -> Optional[PaxosReplica]:
        return self.log.leader if self.log is not None else None

    # -- client API ----------------------------------------------------------------------

    def invoke(self, handler: str, **args: Any) -> Hashable:
        """Invoke an endpoint through the mechanism its plan chose.

        Returns a token; once the simulator has been advanced, the reply (if
        any) is available through :meth:`response`.
        """
        endpoint_plan = self.plan.endpoints[handler]
        token = ("req", next(self._ids))
        if endpoint_plan.coordination_free or not self.consensus:
            self.proxy.invoke(
                handler, args,
                on_reply=lambda reply, t=token: self.responses.__setitem__(t, reply),
            )
            self.metrics.increment("requests.coordination_free")
        else:
            leader = self.consensus_leader
            if leader is None:
                self.responses[token] = {"status": "unavailable", "detail": "no consensus leader"}
                return token
            leader.propose({"handler": handler, "args": args, "token": token})
            self.metrics.increment("requests.coordinated")
        return token

    def response(self, token: Hashable) -> Optional[dict]:
        return self.responses.get(token)

    def settle(self, horizon: float = 500.0) -> None:
        """Advance simulated time so in-flight requests, replication and gossip finish."""
        self.simulator.run(until=self.simulator.now + horizon)

    # -- reporting ------------------------------------------------------------------------

    def availability(self) -> float:
        return self.proxy.availability()

    def messages_sent(self) -> int:
        """Logical messages sent across the deployment.

        Counted at the transport layer, not the wire: per-destination
        batching coalesces one event's protocol messages into shared
        envelopes, so ``network.messages_sent`` measures the batcher, while
        protocol cost comparisons (e.g. the E2 coordination ablation) need
        the logical count.
        """
        return int(self.network.metrics.counter(
            "transport.logical_messages_sent"))

    def replica_states(self):
        return {node_id: replica.interpreter for node_id, replica in self.replicas.items()}
