"""Wing & Gong linearizability checking over recorded histories.

The checker answers one question about a concurrent history: does there
exist a total order of the operations that (a) respects real time — if op
X completed before op Y was invoked, X precedes Y — and (b) is legal for
a sequential specification of the object?  Wing & Gong's algorithm
searches that order directly: repeatedly pick a *minimal* operation (one
not real-time-preceded by any other remaining op), apply it to the
sequential model, and recurse; undo the step and try the next candidate
when the model rejects.

Indeterminate operations are first-class here, exactly as in Jepsen:

* an op that never completed (``INVOKED``) or whose client crashed with
  it in flight (``PENDING``) is *open* — it may take effect at any point
  after its invocation, or never;
* a completed op whose observed result contradicts its own proposal
  (a Paxos failover re-proposed the slot with a different value) is
  treated as open too: its append did not take effect, and the checker
  must not force it into the order;
* a ``FAIL`` op definitely did not take effect and is excluded.

Open ops therefore never *have* to be applied — a search state with only
open ops remaining is a success — but they *may* be applied to fill a
slot that some closed op's observed result skips over.

Worst case the search is exponential; histories here are small (a few
proposals per scenario) and the memo on ``(applied-state, remaining
set)`` prunes re-exploration, so in practice it is instant.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.chaos.checkers import CheckResult
from repro.chaos.history import FAIL, INVOKED, OK, PENDING, History, Op

#: Classification labels for :meth:`SequentialLogModel.classify`.
CLOSED = "closed"    # completed with a result that pins its place
OPEN = "open"        # indeterminate: may linearize anywhere after invoke, or never
EXCLUDED = "excluded"  # definitely did not take effect


class SequentialLogModel:
    """Sequential spec of an append-only consensus log (the Paxos workload).

    State is the number of entries appended so far.  A ``propose`` op
    carries its proposed value in ``op.key`` and, when it completed,
    observes ``result == (slot, chosen_value)``.  The op is *closed* only
    if the log actually chose its own value: then it must be applied
    exactly when the append count equals its observed slot.  Slots are
    assigned contiguously from 0 (``PaxosReplica.next_slot``), so the
    count doubles as the next slot number.
    """

    def initial(self) -> int:
        return 0

    def classify(self, op: Op) -> str:
        if op.status == FAIL:
            return EXCLUDED
        if op.status in (INVOKED, PENDING):
            return OPEN
        if op.status == OK:
            slot, chosen_value = op.result
            return CLOSED if chosen_value == op.key else OPEN
        raise ValueError(f"unknown op status {op.status!r} on op {op.op_id}")

    def apply(self, state: int, op: Op) -> Optional[int]:
        """Apply one op; return the new state, or ``None`` if illegal here."""
        if self.classify(op) == CLOSED:
            slot, _ = op.result
            if slot != state:
                return None
        # An open op's append consumes the next slot unconditionally — no
        # observation constrains which value that slot chose.
        return state + 1


def find_linearization(ops: Sequence[Op], model) -> Optional[list[int]]:
    """Return op ids in a legal linearization order, or ``None`` if none.

    Only ops the model classifies ``CLOSED`` are obligated to appear;
    ``OPEN`` ops appear iff the search needed them to take effect.
    ``EXCLUDED`` ops are ignored entirely.
    """
    considered = [op for op in ops if model.classify(op) != EXCLUDED]
    by_id = {op.op_id: op for op in considered}
    closed_ids = {op.op_id for op in considered
                  if model.classify(op) == CLOSED}

    def end_time(op: Op) -> float:
        # Open ops have no observed completion: nothing is ever known to
        # happen after them, so they impose no real-time precedence.
        if op.op_id not in closed_ids:
            return float("inf")
        return op.completed_at

    order: list[int] = []
    seen_failures: set[tuple[int, frozenset]] = set()

    def search(state, remaining: frozenset) -> bool:
        if not (remaining & closed_ids):
            return True  # only open ops left; they may simply never land
        memo_key = (state, remaining)
        if memo_key in seen_failures:
            return False
        for op_id in sorted(remaining):
            op = by_id[op_id]
            # Minimality: nothing still unlinearized finished before op
            # was even invoked — real time forbids placing op first.
            if any(end_time(by_id[other]) < op.invoked_at
                   for other in remaining if other != op_id):
                continue
            next_state = model.apply(state, op)
            if next_state is None:
                continue
            order.append(op_id)
            if search(next_state, remaining - {op_id}):
                return True
            order.pop()
        seen_failures.add(memo_key)
        return False

    if search(model.initial(), frozenset(by_id)):
        return list(order)
    return None


def explain_not_linearizable(ops: Sequence[Op], model) -> list[str]:
    """Human-readable evidence for a rejection (best-effort, not minimal)."""
    lines = []
    for op in sorted(ops, key=lambda op: op.op_id):
        label = model.classify(op)
        lines.append(f"  {op.describe()} [{label}]")
    return lines


def check_linearizable(history: History,
                       actions: Iterable[str] = ("propose",)) -> CheckResult:
    """Check the consensus-log portion of a history for linearizability.

    Pending and forever-invoked ops are allowed to linearize anywhere
    after their invocation or not at all; completed proposals whose own
    value was chosen must fit a single real-time-respecting sequential
    order of contiguous slots.
    """
    result = CheckResult("linearizable")
    wanted = set(actions)
    ops = [op for op in history.ops if op.action in wanted]
    if not ops:
        return result
    model = SequentialLogModel()
    # Duplicate observed slots among closed ops can never linearize; call
    # them out directly rather than reporting a bare search failure.
    slots: dict[int, Op] = {}
    for op in ops:
        if model.classify(op) != CLOSED:
            continue
        slot = op.result[0]
        if slot in slots:
            result.failures.append(
                f"slot {slot} chosen for two distinct proposals: "
                f"op {slots[slot].op_id} value={slots[slot].key!r} and "
                f"op {op.op_id} value={op.key!r}")
        else:
            slots[slot] = op
    if result.failures:
        return result
    if find_linearization(ops, model) is None:
        result.failures.append(
            "no legal linearization of the consensus log exists "
            "(real-time order contradicts observed slot order):")
        result.failures.extend(explain_not_linearizable(ops, model))
    return result
