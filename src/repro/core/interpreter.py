"""The single-node reference interpreter: HydroLogic's transducer semantics.

This is the "single-node metaphor" of §3.1: a global view of state and one
event loop.  Each tick

1. runs every pending request's handler body against the state as it stood
   when the tick began, collecting deferred effects (bodies only *record*
   effects, so no handler sees another's in-flight writes and no copy of
   the state is needed to guarantee it),
2. at end of tick applies state effects atomically, enforcing any
   application invariants (a request whose effects would violate an
   invariant is rolled back wholesale from an undo journal), and
3. moves ``send`` payloads into their destination mailboxes so they become
   visible at a *later* tick (local sends) or into the outbox (remote
   mailboxes), modelling asynchronous delivery.

The distributed runtimes (replicated deployment, FaaS baseline) reuse this
interpreter per node, so single-node and distributed executions share one
semantics — which is what makes differential testing of the compiler
possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Optional

from repro.core.errors import InvariantViolation, UnknownHandlerError
from repro.core.handlers import HandlerContext, StateView
from repro.core.program import HydroProgram
from repro.core.state import (
    Effect,
    ProgramState,
    SendEffect,
    UndoJournal,
)


@dataclass
class Request:
    """One pending handler invocation."""

    request_id: Hashable
    handler: str
    args: dict[str, Any]


@dataclass
class TickOutcome:
    """What one tick produced."""

    tick: int
    responses: dict[Hashable, Any] = field(default_factory=dict)
    rejected: dict[Hashable, str] = field(default_factory=dict)
    handlers_run: int = 0


class SingleNodeInterpreter:
    """Reference executor for a :class:`HydroProgram` on one logical node."""

    def __init__(self, program: HydroProgram, node_id: Hashable = "local") -> None:
        program.validate()
        self.program = program
        self.node_id = node_id
        self.state = ProgramState(program.datamodel)
        self.tick_number = 0
        self._request_counter = itertools.count()
        self._mailboxes: dict[str, list[Request]] = {}
        self._pending_local_sends: list[SendEffect] = []
        self.outbox: list[SendEffect] = []

    # -- client API -------------------------------------------------------------

    def call(self, handler: str, **args: Any) -> Hashable:
        """Queue a handler invocation; returns the request id."""
        if handler not in self.program.handlers:
            raise UnknownHandlerError(f"program {self.program.name!r} has no handler {handler!r}")
        request_id = (self.node_id, next(self._request_counter))
        self._mailboxes.setdefault(handler, []).append(Request(request_id, handler, args))
        return request_id

    def call_and_run(self, handler: str, **args: Any) -> Any:
        """Convenience: queue a call, run one tick, return its response."""
        request_id = self.call(handler, **args)
        outcome = self.run_tick()
        if request_id in outcome.rejected:
            raise InvariantViolation(outcome.rejected[request_id])
        return outcome.responses.get(request_id)

    def deliver(self, mailbox: str, payload: Any) -> None:
        """Deliver an externally produced message into a handler mailbox."""
        if mailbox not in self.program.handlers:
            raise UnknownHandlerError(f"no handler for mailbox {mailbox!r}")
        request_id = (self.node_id, next(self._request_counter))
        args = payload if isinstance(payload, dict) else {"payload": payload}
        self._mailboxes.setdefault(mailbox, []).append(Request(request_id, mailbox, args))

    @property
    def has_pending_work(self) -> bool:
        return any(self._mailboxes.values()) or bool(self._pending_local_sends)

    # -- reads ---------------------------------------------------------------------

    def view(self) -> StateView:
        """A read-only view over the *current* state (between ticks)."""
        return StateView(self.state, self.program.queries)

    def query(self, name: str, *args: Any, **kwargs: Any) -> Any:
        return self.view().query(name, *args, **kwargs)

    # -- tick execution ---------------------------------------------------------------

    def run_tick(self, log_effects: bool = True) -> TickOutcome:
        """Run one tick of the transducer loop.

        ``log_effects=False`` keeps the tick's effects out of the state's
        change log: a replica applying a consensus-log slot, which the log
        itself delivers to every replica.
        """
        self.tick_number += 1
        outcome = TickOutcome(tick=self.tick_number)

        # Local sends from the previous tick become this tick's inbound messages.
        for send in self._pending_local_sends:
            request_id = (self.node_id, next(self._request_counter))
            args = send.payload if isinstance(send.payload, dict) else {"payload": send.payload}
            self._mailboxes.setdefault(send.mailbox, []).append(
                Request(request_id, send.mailbox, args)
            )
        self._pending_local_sends = []

        pending: list[Request] = []
        for mailbox in sorted(self._mailboxes):
            pending.extend(self._mailboxes[mailbox])
        self._mailboxes = {}
        if not pending:
            return outcome

        # The pre-tick state *is* the tick's snapshot (§3.1: mutations are
        # deferred to end of tick).  Bodies can only record effects through
        # their context, every body runs before the first ``apply`` below,
        # ``StateView`` hands out row copies, and state never mutates a
        # lattice value in place — so reading ``self.state`` directly is
        # indistinguishable from reading a copy of it.
        tick_view = StateView(self.state, self.program.queries)
        udf_memo: dict = {}

        executed: list[tuple[Request, HandlerContext]] = []
        for request in pending:
            handler = self.program.handlers[request.handler]
            context = HandlerContext(
                handler=handler,
                view=tick_view,
                udfs=self.program.udfs,
                udf_memo=udf_memo,
            )
            handler.body(context, **request.args)
            executed.append((request, context))
            outcome.handlers_run += 1

        # End of tick: apply state effects atomically (request by request so
        # invariants can reject an individual request's effects).
        for request, context in executed:
            state_effects = [
                effect
                for effect in context.effects
                if not isinstance(effect, SendEffect)
            ]
            sends = [effect for effect in context.effects if isinstance(effect, SendEffect)]
            spec = self.program.consistency_for(request.handler)

            if spec.invariants:
                # Trial in place: journal what the effects touch, check the
                # invariants on the result, undo on violation (or error) so a
                # rejected request leaves no trace.
                journal = UndoJournal(self.state)
                accepted = False
                try:
                    self.state.apply_all(state_effects, journal)
                    trial_view = StateView(self.state, self.program.queries)
                    violated = [inv for inv in spec.invariants if not inv.holds(trial_view)]
                    accepted = not violated
                finally:
                    if not accepted:
                        journal.rollback()
                if violated:
                    names = ", ".join(inv.name for inv in violated)
                    outcome.rejected[request.request_id] = (
                        f"handler {request.handler!r} rejected: invariant(s) {names} violated"
                    )
                    continue
            else:
                self.state.apply_all(state_effects)
            if log_effects:
                self.state.log_effects(state_effects)
            outcome.responses[request.request_id] = context.response
            for send in sends:
                if send.destination is None and send.mailbox in self.program.handlers:
                    self._pending_local_sends.append(send)
                else:
                    self.outbox.append(send)

        return outcome

    def run_until_quiescent(self, max_ticks: int = 1000) -> list[TickOutcome]:
        """Run ticks until no pending requests or local sends remain."""
        outcomes = []
        for _ in range(max_ticks):
            if not self.has_pending_work:
                return outcomes
            outcomes.append(self.run_tick())
        raise RuntimeError(
            f"program {self.program.name!r} did not quiesce within {max_ticks} ticks"
        )

    def drain_outbox(self) -> list[SendEffect]:
        sends, self.outbox = self.outbox, []
        return sends
