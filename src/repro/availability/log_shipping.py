"""Log shipping: cheap redundancy through logical logs (§6.1, §6.2).

Instead of running a full replica of the service, the primary appends every
mutation to a logical log and ships log records to standby nodes.  Standbys
only store (and acknowledge) the log; on failover one of them replays the
log through a fresh interpreter to reconstruct the state.  Compared with
replicated execution this trades recovery time for steady-state cost — the
ablation the E6 benchmark quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional

from repro.availability.replication import answer_invoke, run_call
from repro.cluster.network import Message
from repro.cluster.node import Node
from repro.core.interpreter import SingleNodeInterpreter
from repro.core.program import HydroProgram


@dataclass(frozen=True)
class LogRecord:
    """One logical-log entry: the handler invocation to replay."""

    index: int
    handler: str
    args: dict[str, Any]


class LogShippingPrimary(Node):
    """The primary: serves requests and ships a logical log to standbys."""

    def __init__(self, node_id, simulator, network, program: HydroProgram,
                 standbys: Iterable[Hashable] = (), domain="default") -> None:
        super().__init__(node_id, simulator, network, domain)
        self.program = program
        self.interpreter = SingleNodeInterpreter(program, node_id=node_id)
        self.standbys = list(standbys)
        self.log: list[LogRecord] = []
        self.on("invoke", self._on_invoke)

    def _on_invoke(self, message: Message) -> None:
        handler, args = message.payload["handler"], message.payload["args"]
        record = LogRecord(len(self.log), handler, dict(args))
        self.log.append(record)
        for standby in self.standbys:
            self.queue(standby, "log_record", record, entries=1)
        answer_invoke(self, message, *run_call(self.interpreter, handler, args,
                                               self.network.metrics))


class LogShippingStandby(Node):
    """A standby that stores the log and can be promoted on failover."""

    def __init__(self, node_id, simulator, network, program: HydroProgram,
                 domain="default") -> None:
        super().__init__(node_id, simulator, network, domain)
        self.program = program
        self.records: dict[int, LogRecord] = {}
        self.promoted = False
        self.interpreter: Optional[SingleNodeInterpreter] = None
        self.on("log_record", self._on_log_record)
        self.on("invoke", self._on_invoke)

    def _on_log_record(self, message: Message) -> None:
        record: LogRecord = message.payload
        self.records[record.index] = record

    @property
    def log_length(self) -> int:
        return len(self.records)

    def promote(self) -> int:
        """Replay the stored log and start serving requests.

        Returns the number of records replayed.  Gaps in the log (records
        lost because the primary crashed mid-ship) are skipped: log shipping
        gives durability up to the last shipped record, not exactly-once.
        """
        self.promoted = True
        self.interpreter = SingleNodeInterpreter(self.program, node_id=self.node_id)
        replayed = 0
        for index in sorted(self.records):
            record = self.records[index]
            run_call(self.interpreter, record.handler, record.args,
                     self.network.metrics)
            replayed += 1
        return replayed

    def _on_invoke(self, message: Message) -> None:
        if not self.promoted or self.interpreter is None:
            return  # not serving yet; the proxy will retry elsewhere
        payload = message.payload
        answer_invoke(self, message,
                      *run_call(self.interpreter, payload["handler"], payload["args"],
                                self.network.metrics))
