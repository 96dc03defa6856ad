"""The load-balancing client proxy interposed in front of replicated endpoints.

This is the module the paper sketches for ``add_contact`` (§6.1): it tracks
the replicas of each endpoint, forwards a request to one (or to f+1) of
them, retries on another replica when no reply arrives in time, and makes
sure a response reaches the client.  It measures observed availability and
latency, which is what the E6 benchmark reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Hashable, Optional

from repro.cluster.metrics import MetricsRegistry
from repro.cluster.network import Message
from repro.cluster.node import Node
from repro.cluster.simulator import Event


@dataclass
class _PendingRequest:
    request_id: int
    handler: str
    args: dict[str, Any]
    replicas_tried: list[Hashable] = field(default_factory=list)
    attempts: int = 0
    sent_at: float = 0.0
    on_reply: Optional[Callable[[dict], None]] = None
    retry_timer: Optional[Event] = None


class ReplicaProxy(Node):
    """Routes client calls to replicas, with retry-on-failure."""

    def __init__(self, node_id, simulator, network, domain="default",
                 retry_timeout: float = 30.0, max_attempts: int = 4,
                 metrics: MetricsRegistry | None = None) -> None:
        super().__init__(node_id, simulator, network, domain)
        self.retry_timeout = retry_timeout
        self.max_attempts = max_attempts
        self.metrics = metrics or MetricsRegistry()
        self._replica_sets: dict[str, list[Hashable]] = {}
        self._round_robin: dict[str, itertools.cycle] = {}
        self._pending: dict[int, _PendingRequest] = {}
        self._ids = itertools.count()
        self.responses: dict[int, dict] = {}
        self.failed: dict[int, str] = {}
        self.on("reply", self._on_reply)

    # -- configuration ---------------------------------------------------------------

    def register_endpoint(self, handler: str, replicas: list[Hashable]) -> None:
        """Declare which replicas serve ``handler``."""
        self._replica_sets[handler] = list(replicas)
        self._round_robin[handler] = itertools.cycle(replicas)

    def replicas_for(self, handler: str) -> list[Hashable]:
        return list(self._replica_sets.get(handler, []))

    # -- client API -------------------------------------------------------------------

    def invoke(self, handler: str, args: dict[str, Any],
               on_reply: Optional[Callable[[dict], None]] = None) -> int:
        """Forward a call to one live replica of ``handler``; returns a request id."""
        if handler not in self._replica_sets:
            raise KeyError(f"no replicas registered for endpoint {handler!r}")
        request_id = next(self._ids)
        pending = _PendingRequest(
            request_id=request_id,
            handler=handler,
            args=dict(args),
            sent_at=self.simulator.now,
            on_reply=on_reply,
        )
        self._pending[request_id] = pending
        self.metrics.increment("proxy.requests")
        self._forward(pending)
        return request_id

    # -- internals ---------------------------------------------------------------------

    def _choose_replica(self, pending: _PendingRequest) -> Optional[Hashable]:
        replicas = self._replica_sets[pending.handler]
        untried = [replica for replica in replicas if replica not in pending.replicas_tried]
        pool = untried or replicas
        if not pool:
            return None
        # Round-robin over the pool for load balancing.
        cycle = self._round_robin[pending.handler]
        for _ in range(len(replicas)):
            candidate = next(cycle)
            if candidate in pool:
                return candidate
        return pool[0]

    def _forward(self, pending: _PendingRequest) -> None:
        if pending.attempts >= self.max_attempts:
            self._fail(pending, "max attempts exceeded")
            return
        replica = self._choose_replica(pending)
        if replica is None:
            self._fail(pending, "no replicas registered")
            return
        pending.attempts += 1
        pending.replicas_tried.append(replica)
        self.metrics.increment("proxy.forwarded")
        self.send(
            replica,
            "invoke",
            {"handler": pending.handler, "args": pending.args, "request_id": pending.request_id},
        )
        # The callback and the lazy label hold the request id, not
        # ``pending``: the event is ``pending.retry_timer``, and a cycle would
        # park every finished request on the garbage collector.
        request_id = pending.request_id
        pending.retry_timer = self.set_timer(
            self.retry_timeout, partial(self._on_timeout, request_id),
            label=partial("proxy-retry-{}".format, request_id))

    def crash(self) -> None:
        """Fail what was in flight: its retry timers die with the node, so
        nothing would ever answer or fail those requests otherwise."""
        super().crash()
        for pending in list(self._pending.values()):
            self._fail(pending, "proxy crashed")

    def _fail(self, pending: _PendingRequest, reason: str) -> None:
        del self._pending[pending.request_id]
        self.failed[pending.request_id] = reason
        self.metrics.increment("proxy.failures")

    def _on_timeout(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        self.metrics.increment("proxy.retries")
        self._forward(pending)

    def _on_reply(self, message: Message) -> None:
        reply = message.payload
        request_id = reply["request_id"]
        # In flight means in ``_pending``: a late or duplicate reply finds nothing.
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        pending.retry_timer.cancel()
        self.responses[request_id] = reply
        latency = self.simulator.now - pending.sent_at
        self.metrics.record_latency(f"proxy.{pending.handler}", latency)
        self.metrics.increment("proxy.replies")
        if pending.on_reply is not None:
            pending.on_reply(reply)

    # -- reporting ---------------------------------------------------------------------

    def availability(self) -> float:
        """Fraction of issued requests that received a reply."""
        issued = self.metrics.counter("proxy.requests")
        if not issued:
            return 1.0
        return self.metrics.counter("proxy.replies") / issued
