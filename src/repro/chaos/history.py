"""Jepsen-style operation histories.

Every chaos workload records what it *asked for* and what it *observed* as a
sequence of operations with simulated-time invoke/complete stamps.  Checkers
(:mod:`repro.chaos.checkers`) then judge the history against the consistency
model each layer claims — without ever peeking at protocol internals, which
is what makes the harness reusable across the KVS, the causal layer, Paxos
and the apps.

An operation that never completes stays ``INVOKED``: under message loss the
outcome is *indeterminate* (the write may or may not have landed), and
checkers must treat it as such rather than as a failure — exactly Jepsen's
``:info`` semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Optional

#: An operation has been issued but no response has been observed yet.
INVOKED = "invoked"
#: The operation completed successfully (ack / reply arrived).
OK = "ok"
#: The operation definitely failed (an error response arrived).
FAIL = "fail"
#: The issuing client crashed with the operation in flight: the outcome is
#: permanently indeterminate (Jepsen ``:info``).  A pending write may or may
#: not have landed, so linearizability checkers must allow it to take effect
#: anywhere after its invocation — or never.
PENDING = "pending"


@dataclass
class Op:
    """One recorded operation."""

    op_id: int
    client: Hashable
    action: str
    key: Hashable = None
    value: Any = None
    invoked_at: float = 0.0
    completed_at: Optional[float] = None
    result: Any = None
    status: str = INVOKED
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.invoked_at

    def describe(self) -> str:
        completed = (
            f"ok@{self.completed_at:.1f}" if self.ok
            else self.status
        )
        return (
            f"[{self.op_id}] {self.client} {self.action} {self.key!r}"
            f" value={self.value!r} invoked@{self.invoked_at:.1f} {completed}"
        )

    def to_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "client": repr(self.client),
            "action": self.action,
            "key": repr(self.key),
            "value": repr(self.value),
            "invoked_at": self.invoked_at,
            "completed_at": self.completed_at,
            "result": repr(self.result),
            "status": self.status,
            "info": {key: repr(value) for key, value in self.info.items()},
        }


class History:
    """An append-only operation log shared by all workloads of a scenario."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self._ids = itertools.count()

    def invoke(self, client: Hashable, action: str, key: Hashable = None,
               value: Any = None, at: float = 0.0) -> Op:
        op = Op(next(self._ids), client, action, key, value, invoked_at=at)
        self.ops.append(op)
        return op

    def complete(self, op: Op, result: Any = None, at: float = 0.0, **info: Any) -> Op:
        op.status = OK
        op.result = result
        op.completed_at = at
        op.info.update(info)
        return op

    def fail(self, op: Op, error: Any, at: float = 0.0) -> Op:
        op.status = FAIL
        op.result = error
        op.completed_at = at
        return op

    def mark_pending(self, op: Op, at: float = 0.0, **info: Any) -> Op:
        """Freeze an in-flight op as permanently indeterminate.

        Only ops still ``INVOKED`` can become pending: a response that
        already arrived fixed the outcome, and crashing the client
        afterwards cannot un-observe it.  ``completed_at`` stays ``None`` —
        a pending op has no completion event, only a crash time in ``info``.
        """
        if op.status != INVOKED:
            raise ValueError(
                f"cannot mark {op.status} op {op.op_id} pending; only "
                "in-flight (invoked) ops have an indeterminate outcome"
            )
        op.status = PENDING
        op.info["crashed_at"] = at
        op.info.update(info)
        return op

    # -- views ------------------------------------------------------------------

    def completed(self) -> list[Op]:
        return [op for op in self.ops if op.ok]

    def pending(self) -> list[Op]:
        return [op for op in self.ops if op.status == PENDING]

    def by_client(self) -> dict[Hashable, list[Op]]:
        """Ops grouped per client, each group in invocation order."""
        grouped: dict[Hashable, list[Op]] = {}
        for op in self.ops:
            grouped.setdefault(op.client, []).append(op)
        return grouped

    def ops_for(self, client: Hashable = None, action: str | None = None,
                key: Hashable = None) -> list[Op]:
        return [
            op for op in self.ops
            if (client is None or op.client == client)
            and (action is None or op.action == action)
            and (key is None or op.key == key)
        ]

    def actions(self) -> set[str]:
        return {op.action for op in self.ops}

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterable[Op]:
        return iter(self.ops)
