"""The load-balancing client proxy interposed in front of replicated endpoints.

This is the module the paper sketches for ``add_contact`` (§6.1): it tracks
the replicas of each endpoint, forwards a request to one of them, fails over
to another replica when no reply arrives in time, and makes sure a response
reaches the client.  It measures observed availability and latency, which is
what the E6 benchmark reports.

Each attempt is one transport RPC, ``invoke {"handler", "args"}``, that the
replica answers with ``reply``: the transport keeps the request, its timer
and its duplicate suppression, so a reply to an attempt that already timed
out is a duplicate like any other.  A timed-out attempt fails over to the
next replica not yet tried, round-robin (to any once all were), until
``MAX_ATTEMPTS`` attempts have timed out.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Hashable, Optional

from repro.cluster.metrics import MetricsRegistry
from repro.cluster.node import DEFAULT_DOMAIN, Node
from repro.cluster.transport import RpcPolicy

OnReply = Optional[Callable[[dict], None]]

#: Attempts per call, the first included, before the proxy gives up on it.
MAX_ATTEMPTS = 4


class ReplicaProxy(Node):
    """Routes client calls to replicas, with failover on timeout."""

    def __init__(self, node_id, simulator, network, domain=DEFAULT_DOMAIN,
                 retry_timeout: float = 30.0,
                 metrics: MetricsRegistry | None = None) -> None:
        super().__init__(node_id, simulator, network, domain)
        #: One attempt: the transport times it out, the proxy fails over.
        self.attempt_policy = RpcPolicy(timeout=retry_timeout, max_attempts=1)
        self.metrics = metrics or MetricsRegistry()
        self._replica_sets: dict[str, list[Hashable]] = {}
        self._round_robin: dict[str, itertools.cycle] = {}

    # -- configuration ---------------------------------------------------------------

    def register_endpoint(self, handler: str, replicas: list[Hashable]) -> None:
        """Declare which replicas serve ``handler``."""
        self._replica_sets[handler] = list(replicas)
        self._round_robin[handler] = itertools.cycle(replicas)

    # -- client API -------------------------------------------------------------------

    def invoke(self, handler: str, args: dict[str, Any], on_reply: OnReply = None) -> None:
        """Forward a call to one replica of ``handler``; ``on_reply`` gets the
        reply, ``{"status", "value" | "detail", "replica"}``."""
        if handler not in self._replica_sets:
            raise KeyError(f"no replicas registered for endpoint {handler!r}")
        self.metrics.increment("proxy.requests")
        self._forward({"handler": handler, "args": dict(args)}, [],
                      self.simulator.now, on_reply)

    # -- internals ---------------------------------------------------------------------

    def _choose_replica(self, handler: str, tried: list[Hashable]) -> Optional[Hashable]:
        replicas = self._replica_sets[handler]
        pool = [replica for replica in replicas if replica not in tried] or replicas
        # Round-robin over the pool for load balancing.
        cycle = self._round_robin[handler]
        for _ in replicas:
            candidate = next(cycle)
            if candidate in pool:
                return candidate
        return None     # no replica registered

    def _forward(self, payload: dict, tried: list[Hashable], sent_at: float,
                 on_reply: OnReply) -> None:
        """Send the next attempt; every call after the first is a timeout's,
        and a retry only if it sends one."""
        handler = payload["handler"]
        replica = (self._choose_replica(handler, tried)
                   if len(tried) < MAX_ATTEMPTS else None)
        if replica is None:
            self.metrics.increment("proxy.failures")
            return
        if tried:
            self.metrics.increment("proxy.retries")
        tried.append(replica)
        self.metrics.increment("proxy.forwarded")
        self.request(replica, "invoke", payload, entries=1, policy=self.attempt_policy,
                     on_reply=partial(self._on_reply, handler, sent_at, on_reply),
                     on_timeout=partial(self._forward, payload, tried, sent_at, on_reply))

    def _on_reply(self, handler: str, sent_at: float, on_reply: OnReply, reply: dict) -> None:
        self.metrics.record_latency(f"proxy.{handler}", self.simulator.now - sent_at)
        self.metrics.increment("proxy.replies")
        if on_reply is not None:
            on_reply(reply)

    def crash(self) -> None:
        """Fail what was in flight: the transport's requests die with the node."""
        self.metrics.increment("proxy.failures", self.transport.pending_requests)
        super().crash()

    # -- reporting ---------------------------------------------------------------------

    def availability(self) -> float:
        """Fraction of issued requests that received a reply."""
        issued = self.metrics.counter("proxy.requests")
        if not issued:
            return 1.0
        return self.metrics.counter("proxy.replies") / issued
