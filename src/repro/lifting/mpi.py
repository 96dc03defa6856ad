"""MPI collective communication (Appendix A.3).

Two artifacts:

* :class:`MPICluster` — collectives (Bcast, Scatter, Gather, Reduce,
  Allgather, Allreduce, Alltoall) executed over the simulated network by a
  set of agent nodes, with both the *naive* algorithms of the appendix's
  listing (root sends/receives everything directly) and the *tree-based*
  optimizations the appendix says Hydrolysis could employ.  The E7 benchmark
  compares the two.
* :func:`build_mpi_program` — the appendix's HydroLogic translation: an
  ``agents`` table, a ``gathered`` table with tombstones, and handlers for
  ``mpi_bcast`` / ``mpi_scatter`` / ``mpi_gather`` / ``mpi_reduce`` /
  ``mpi_allgather`` / ``mpi_allreduce``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional, Sequence

from repro.cluster.network import Message, Network
from repro.cluster.node import DEFAULT_DOMAIN, Node
from repro.cluster.simulator import Simulator
from repro.core.datamodel import FieldSpec
from repro.core.handlers import EffectKind, EffectSpec
from repro.core.program import HydroProgram
from repro.lattices import BoolOr, MapLattice, SetUnion


class MPIAgent(Node):
    """One MPI rank: stores received chunks and participates in tree collectives."""

    def __init__(self, node_id, simulator, network, rank: int, domain=DEFAULT_DOMAIN) -> None:
        super().__init__(node_id, simulator, network, domain)
        self.rank = rank
        self.received: list[Any] = []
        self.reduced: dict[int, Any] = {}
        self.on("data", self._on_data)
        self.on("relay", self._on_relay)

    def _on_data(self, message: Message) -> None:
        self.received.append(message.payload)

    def _on_relay(self, message: Message) -> None:
        """Tree broadcast: store the value and forward it to our subtree children."""
        payload = message.payload
        value, children_map = payload["value"], payload["children"]
        self.received.append(value)
        for child in children_map.get(self.rank, ()):  # our direct children
            self.queue(f"agent-{child}", "relay", {"value": value, "children": children_map},
                       entries=payload.get("entries", 1))


class MPICluster:
    """A set of MPI ranks plus collective operations over the simulated network."""

    def __init__(self, simulator: Simulator, network: Network, size: int) -> None:
        if size < 1:
            raise ValueError("an MPI cluster needs at least one agent")
        self.simulator = simulator
        self.network = network
        self.size = size
        self.agents = [
            MPIAgent(f"agent-{rank}", simulator, network, rank) for rank in range(size)
        ]

    # -- helpers ---------------------------------------------------------------------

    def _settle(self) -> None:
        self.simulator.run_until_idle()

    def clear(self) -> None:
        for agent in self.agents:
            agent.received = []
            agent.reduced = {}

    def _binomial_children(self) -> dict[int, list[int]]:
        """Children of each rank in a binary broadcast tree rooted at 0."""
        children: dict[int, list[int]] = {rank: [] for rank in range(self.size)}
        for rank in range(1, self.size):
            children[(rank - 1) // 2].append(rank)
        return children

    # -- one-to-all -------------------------------------------------------------------

    def bcast(self, value: Any, entries: int = 1, algorithm: str = "naive") -> dict[str, int]:
        """Broadcast ``value`` from rank 0 to all ranks; returns message stats.

        ``entries`` declares the payload's wire cost in key/value-sized
        units (see ``repro.cluster.wire_size``); the transport prices every
        hop from it.
        """
        before = self.network.messages_sent
        root = self.agents[0]
        root.received.append(value)
        if algorithm == "naive":
            for agent in self.agents[1:]:
                root.queue(agent.node_id, "data", value, entries=entries)
        elif algorithm == "tree":
            children = self._binomial_children()
            for child in children[0]:
                root.queue(f"agent-{child}", "relay",
                           {"value": value, "children": children, "entries": entries},
                           entries=entries)
        else:
            raise ValueError(f"unknown broadcast algorithm {algorithm!r}")
        self._settle()
        return {"messages": self.network.messages_sent - before}

    def scatter(self, array: Sequence[Any], entries: int = 1) -> dict[str, int]:
        """Partition ``array`` into chunks, one per rank."""
        before = self.network.messages_sent
        root = self.agents[0]
        chunk_size = max(1, len(array) // self.size)
        for rank, agent in enumerate(self.agents):
            chunk = list(array[rank * chunk_size:(rank + 1) * chunk_size]) if rank < self.size - 1 \
                else list(array[rank * chunk_size:])
            if agent is root:
                agent.received.append(chunk)
            else:
                root.queue(agent.node_id, "data", chunk, entries=entries)
        self._settle()
        return {"messages": self.network.messages_sent - before}

    # -- all-to-one -------------------------------------------------------------------

    def gather(self, values: Sequence[Any], entries: int = 1) -> list[Any]:
        """Each rank contributes values[rank]; rank 0 assembles the dense array."""
        if len(values) != self.size:
            raise ValueError("gather needs exactly one value per rank")
        root = self.agents[0]
        for rank, agent in enumerate(self.agents):
            if agent is root:
                root.received.append((rank, values[rank]))
            else:
                agent.queue(root.node_id, "data", (rank, values[rank]), entries=entries)
        self._settle()
        gathered = sorted(
            (item for item in root.received if isinstance(item, tuple)), key=lambda p: p[0]
        )
        return [value for _, value in gathered]

    def reduce(self, values: Sequence[Any], op: Callable[[Any, Any], Any],
               entries: int = 1, algorithm: str = "naive") -> tuple[Any, dict[str, int]]:
        """Reduce values across ranks to rank 0; returns (result, stats)."""
        if len(values) != self.size:
            raise ValueError("reduce needs exactly one value per rank")
        before = self.network.messages_sent
        if algorithm == "naive":
            gathered = self.gather(values, entries=entries)
            result = gathered[0]
            for value in gathered[1:]:
                result = op(result, value)
        elif algorithm == "tree":
            # Pairwise tree reduction: log2(n) rounds of halving.
            current = {rank: values[rank] for rank in range(self.size)}
            stride = 1
            while stride < self.size:
                for rank in range(0, self.size, stride * 2):
                    partner = rank + stride
                    if partner < self.size:
                        self.agents[partner].queue(self.agents[rank].node_id, "data",
                                                   ("partial", current[partner]),
                                                   entries=entries)
                        current[rank] = op(current[rank], current[partner])
                stride *= 2
            self._settle()
            result = current[0]
        else:
            raise ValueError(f"unknown reduce algorithm {algorithm!r}")
        stats = {"messages": self.network.messages_sent - before}
        return result, stats

    # -- all-to-all -------------------------------------------------------------------

    def allreduce(self, values: Sequence[Any], op: Callable[[Any, Any], Any],
                  entries: int = 1, algorithm: str = "naive") -> list[Any]:
        result, _ = self.reduce(values, op, entries=entries, algorithm=algorithm)
        self.bcast(result, entries=entries)
        return [result for _ in range(self.size)]

    def alltoall(self, matrix: Sequence[Sequence[Any]], entries: int = 1) -> list[list[Any]]:
        """matrix[i][j] is sent from rank i to rank j; returns the transposed exchange."""
        if len(matrix) != self.size or any(len(row) != self.size for row in matrix):
            raise ValueError("alltoall needs an n x n matrix of payloads")
        for sender in range(self.size):
            for receiver in range(self.size):
                if sender == receiver:
                    self.agents[receiver].received.append((sender, matrix[sender][receiver]))
                else:
                    self.agents[sender].queue(self.agents[receiver].node_id, "data",
                                              (sender, matrix[sender][receiver]),
                                              entries=entries)
        self._settle()
        output = []
        for receiver in range(self.size):
            inbound = sorted(
                (item for item in self.agents[receiver].received if isinstance(item, tuple)),
                key=lambda p: p[0],
            )
            output.append([value for _, value in inbound])
        return output


# -- the HydroLogic translation (Appendix A.3 listing) ---------------------------------


def build_mpi_program(agent_count: int) -> HydroProgram:
    """The appendix's MPI collectives expressed as a HydroLogic program."""
    program = HydroProgram("mpi_collectives")
    program.add_class("Agent", fields=[FieldSpec("agent_id", int)], key="agent_id")
    program.add_table("agents", "Agent")
    program.add_class(
        "Gathered",
        fields=[
            FieldSpec("entry"),          # (request_id, index) composite key
            FieldSpec("request_id", int),
            FieldSpec("ix", int),
            FieldSpec("val"),
            FieldSpec("tombstone", lattice=BoolOr),
        ],
        key="entry",
    )
    program.add_table("gathered", "Gathered")

    def acount(view):
        return view.count("agents")

    program.add_query("acount", acount, reads=["agents"], monotone=True)

    def gcount(view, request_id):
        return sum(1 for row in view.rows("gathered") if row["request_id"] == request_id)

    program.add_query("gcount", gcount, reads=["gathered"], monotone=True)

    def register_agent(ctx, agent_id):
        ctx.merge_row("agents", agent_id=agent_id)
        ctx.respond("OK")

    program.add_handler(
        "register_agent", register_agent, params=["agent_id"],
        effects=[EffectSpec(EffectKind.MERGE, "agents")], reads=["agents"],
        doc="Populate the static agents table.",
    )

    def mpi_bcast(ctx, msg_id, msg):
        for row in ctx.rows("agents"):
            ctx.send("mpi_bcast_channel", {"agent_id": row["agent_id"], "msg_id": msg_id, "msg": msg})
        ctx.respond(ctx.query("acount"))

    program.add_handler(
        "mpi_bcast", mpi_bcast, params=["msg_id", "msg"],
        effects=[EffectSpec(EffectKind.SEND, "mpi_bcast_channel")],
        reads=["agents"], queries=["acount"],
        doc="One-to-all broadcast: one send per registered agent.",
    )

    def mpi_scatter(ctx, req_id, arr):
        agent_ids = sorted(row["agent_id"] for row in ctx.rows("agents"))
        count = len(agent_ids)
        if count == 0:
            ctx.respond(0)
            return
        chunk_size = max(1, len(arr) // count)
        for index, agent_id in enumerate(agent_ids):
            chunk = list(arr[index * chunk_size:(index + 1) * chunk_size]) if index < count - 1 \
                else list(arr[index * chunk_size:])
            ctx.send("mpi_scatter_channel", {"agent_id": agent_id, "req_id": req_id, "subarray": chunk})
        ctx.respond(count)

    program.add_handler(
        "mpi_scatter", mpi_scatter, params=["req_id", "arr"],
        effects=[EffectSpec(EffectKind.SEND, "mpi_scatter_channel")],
        reads=["agents"], queries=["acount"],
        doc="One-to-all scatter: partition the array across agents.",
    )

    def mpi_gather(ctx, req_id, ix, val):
        ctx.merge_row("gathered", entry=(req_id, ix), request_id=req_id, ix=ix, val=val)
        already = ctx.query("gcount", req_id) + 1  # including this tick's contribution
        if already >= ctx.query("acount"):
            rows = [r for r in ctx.rows("gathered") if r["request_id"] == req_id]
            rows.append({"request_id": req_id, "ix": ix, "val": val, "tombstone": BoolOr(False)})
            by_index = {}
            for row in rows:
                by_index[row["ix"]] = row["val"]
            result = [by_index[index] for index in sorted(by_index)]
            ctx.merge_field("gathered", (req_id, ix), "tombstone", BoolOr(True))
            ctx.respond(result)
        else:
            ctx.respond(None)

    program.add_handler(
        "mpi_gather", mpi_gather, params=["req_id", "ix", "val"],
        effects=[EffectSpec(EffectKind.MERGE, "gathered")],
        reads=["gathered", "agents"], queries=["acount", "gcount"],
        doc="All-to-one gather: assemble the dense array once every agent reported.",
    )

    def mpi_reduce(ctx, req_id, ix, val, op):
        ctx.merge_row("gathered", entry=(req_id, ix), request_id=req_id, ix=ix, val=val)
        already = ctx.query("gcount", req_id) + 1
        if already >= ctx.query("acount"):
            values = [r["val"] for r in ctx.rows("gathered") if r["request_id"] == req_id]
            values.append(val)
            result = values[0]
            for value in values[1:]:
                result = op(result, value)
            ctx.merge_field("gathered", (req_id, ix), "tombstone", BoolOr(True))
            ctx.respond(result)
        else:
            ctx.respond(None)

    program.add_handler(
        "mpi_reduce", mpi_reduce, params=["req_id", "ix", "val", "op"],
        effects=[EffectSpec(EffectKind.MERGE, "gathered")],
        reads=["gathered", "agents"], queries=["acount", "gcount"],
        doc="All-to-one reduce: fold an operator over every agent's contribution.",
    )

    def mpi_allgather(ctx, req_id, ix, val):
        ctx.merge_row("gathered", entry=(req_id, ix), request_id=req_id, ix=ix, val=val)
        already = ctx.query("gcount", req_id) + 1
        if already >= ctx.query("acount"):
            rows = [r for r in ctx.rows("gathered") if r["request_id"] == req_id]
            by_index = {row["ix"]: row["val"] for row in rows}
            by_index[ix] = val
            result = [by_index[index] for index in sorted(by_index)]
            for row in ctx.rows("agents"):
                ctx.send("mpi_bcast_channel", {"agent_id": row["agent_id"], "msg_id": req_id, "msg": result})
            ctx.respond(result)
        else:
            ctx.respond(None)

    program.add_handler(
        "mpi_allgather", mpi_allgather, params=["req_id", "ix", "val"],
        effects=[EffectSpec(EffectKind.MERGE, "gathered"), EffectSpec(EffectKind.SEND, "mpi_bcast_channel")],
        reads=["gathered", "agents"], queries=["acount", "gcount"],
        doc="All-to-all gather: gather then rebroadcast the assembled array.",
    )

    program.validate()
    return program
