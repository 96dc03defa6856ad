"""A deterministic discrete-event simulator of a cloud deployment.

The paper's availability, consistency and target facets all reason about
behaviour under asynchrony — message delay, reordering, loss, node crashes
across failure domains, and autoscaling.  We do not have a cloud in this
reproduction, so this package supplies the substitute substrate: a
discrete-event simulator with

* a single logical clock and an event queue (:class:`Simulator`),
* nodes that host message handlers and timers (:class:`Node`),
* a network with configurable per-link delay distributions, drop rates,
  duplication, partitions, and an optional bandwidth/queueing model with
  locality-aware delay matrices (:class:`Network`, :class:`DelayMatrix`),
* failure domains (VM / rack / AZ / region) and per-node crash/recovery
  (:meth:`Node.crash`, :meth:`Node.recover`), and
* metrics collection (latency histograms, message counts, billing units).

Determinism: all randomness flows through a seeded :class:`random.Random`
owned by the simulator, and ties in the event queue break on insertion
order, so a given seed always yields the same trace.
"""

from repro.cluster.simulator import Event, Simulator
from repro.cluster.network import (
    DelayMatrix,
    LinkSpec,
    Message,
    Network,
    NetworkConfig,
    Partition,
    WIRE_ENTRY_BYTES,
    WIRE_HEADER_BYTES,
    wire_size,
)
from repro.cluster.transport import (
    TRANSPORT_MAILBOX,
    Parcel,
    PayloadMutationError,
    RpcPolicy,
    Transport,
    TransportConfig,
    payload_digest,
)
from repro.cluster.node import Node
from repro.cluster.domains import FailureDomain, Placement, Topology
from repro.cluster.metrics import LatencyRecorder, MetricsRegistry

__all__ = [
    "Simulator",
    "Event",
    "Network",
    "NetworkConfig",
    "DelayMatrix",
    "LinkSpec",
    "Message",
    "Partition",
    "Node",
    "FailureDomain",
    "Topology",
    "Placement",
    "MetricsRegistry",
    "LatencyRecorder",
    "wire_size",
    "WIRE_HEADER_BYTES",
    "WIRE_ENTRY_BYTES",
    "Transport",
    "TransportConfig",
    "PayloadMutationError",
    "payload_digest",
    "Parcel",
    "RpcPolicy",
    "TRANSPORT_MAILBOX",
]
