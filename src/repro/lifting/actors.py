"""Actors: a native actor runtime and its lifting to HydroLogic (Appendix A.1).

The native runtime (:class:`ActorSystem`) implements the three actor
primitives — message exchange, local state update, spawning — with a
single-threaded mailbox loop, plus the *mid-method receive* idiom: a handler
may return :class:`Receive`, suspending the actor until a message arrives in
the named mailbox, at which point the continuation runs with the preserved
state (the coroutine pattern of Appendix A.1).

``lift_actor_class`` translates an :class:`ActorClass` into a
:class:`~repro.core.program.HydroProgram`: an ``actors`` table keyed by
``actor_id``, one ``on`` handler per actor method whose first argument
identifies the actor, a ``spawn`` handler, and — for methods that use
mid-method receive — a pair of handlers with an explicit ``waiting`` status
field, exactly as the appendix sketches (including its observation that the
blocking idiom forces non-monotone mutation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.core.datamodel import FieldSpec
from repro.core.facets import ConsistencyLevel, ConsistencySpec
from repro.core.handlers import EffectKind, EffectSpec
from repro.core.program import HydroProgram


@dataclass(frozen=True)
class Receive:
    """Returned by an actor method to block until ``mailbox`` receives a message."""

    mailbox: str
    continuation: Callable[[dict, Any], Any]


@dataclass
class ActorClass:
    """An actor definition: an initializer and named message handlers.

    Handlers are ``fn(state: dict, **kwargs) -> reply`` and may mutate
    ``state`` in place; returning a :class:`Receive` suspends the actor.
    """

    name: str
    init: Callable[..., dict] = field(default=lambda **kwargs: dict(kwargs))
    handlers: dict[str, Callable[..., Any]] = field(default_factory=dict)

    def handler(self, name: str) -> Callable[..., Any]:
        if name not in self.handlers:
            raise KeyError(f"actor class {self.name!r} has no handler {name!r}")
        return self.handlers[name]


class ActorSystem:
    """The native single-process actor runtime (the lifting baseline)."""

    def __init__(self) -> None:
        self._classes: dict[str, ActorClass] = {}
        self._state: dict[Hashable, dict] = {}
        self._class_of: dict[Hashable, str] = {}
        self._waiting: dict[Hashable, Receive] = {}
        self._ids = itertools.count()
        self.replies: list[Any] = []

    def register(self, actor_class: ActorClass) -> None:
        self._classes[actor_class.name] = actor_class

    def spawn(self, class_name: str, actor_id: Optional[Hashable] = None, **init_kwargs) -> Hashable:
        """Create an actor instance and run its initializer."""
        if actor_id is None:
            actor_id = f"{class_name}-{next(self._ids)}"
        if actor_id in self._state:
            raise ValueError(f"actor {actor_id!r} already exists")
        actor_class = self._classes[class_name]
        self._state[actor_id] = actor_class.init(**init_kwargs)
        self._class_of[actor_id] = class_name
        return actor_id

    def send(self, actor_id: Hashable, method: str, **kwargs: Any) -> Any:
        """Deliver a message; returns the handler's reply (None while suspended)."""
        if actor_id not in self._state:
            raise KeyError(f"unknown actor {actor_id!r}")
        state = self._state[actor_id]
        pending = self._waiting.get(actor_id)
        if pending is not None and method == pending.mailbox:
            self._waiting.pop(actor_id)
            reply = pending.continuation(state, kwargs.get("payload", kwargs))
            self.replies.append(reply)
            return reply
        actor_class = self._classes[self._class_of[actor_id]]
        result = actor_class.handler(method)(state, **kwargs)
        if isinstance(result, Receive):
            self._waiting[actor_id] = result
            return None
        self.replies.append(result)
        return result

    def state_of(self, actor_id: Hashable) -> dict:
        return dict(self._state[actor_id])

    def is_waiting(self, actor_id: Hashable) -> bool:
        return actor_id in self._waiting


def lift_actor_class(actor_class: ActorClass) -> HydroProgram:
    """Lift an actor class into a HydroLogic program.

    The lifted program keeps per-actor state in an ``actors`` table row
    (``state`` is a plain, assign-only field — actor state updates are
    arbitrary and therefore non-monotone) plus a ``waiting`` field recording
    a suspended continuation's mailbox.  An actor runs its methods one at a
    time, so every lifted handler is ``serializable``: deployed, it goes
    through the consensus log, and no replica's update is lost to another's.
    """
    program = HydroProgram(f"lifted_actor_{actor_class.name}")
    program.consistency.set_default(ConsistencySpec(ConsistencyLevel.SERIALIZABLE))
    program.add_class(
        "Actor",
        fields=[
            FieldSpec("actor_id"),
            FieldSpec("state"),
            FieldSpec("waiting"),
        ],
        key="actor_id",
    )
    program.add_table("actors", "Actor")

    def spawn(ctx, actor_id, init_kwargs=None):
        initial = actor_class.init(**(init_kwargs or {}))
        ctx.merge_row("actors", actor_id=actor_id)
        ctx.assign_field("actors", actor_id, "state", initial)
        ctx.assign_field("actors", actor_id, "waiting", None)
        ctx.respond(actor_id)

    program.add_handler(
        "spawn",
        spawn,
        params=["actor_id", "init_kwargs"],
        effects=[EffectSpec(EffectKind.MERGE, "actors"), EffectSpec(EffectKind.ASSIGN, "actors")],
        reads=["actors"],
        doc=f"Spawn a new {actor_class.name} actor instance.",
    )

    for method_name, method in actor_class.handlers.items():
        def handler_body(ctx, actor_id, kwargs=None, _method=method, _name=method_name):
            row = ctx.row("actors", actor_id)
            if row is None or row["state"] is None:
                ctx.respond(None)
                return
            state = dict(row["state"])
            result = _method(state, **(kwargs or {}))
            ctx.assign_field("actors", actor_id, "state", state)
            if isinstance(result, Receive):
                # Mid-method receive: park the continuation's mailbox; the
                # matching <mailbox>_receive handler resumes it.
                ctx.assign_field("actors", actor_id, "waiting", result.mailbox)
                ctx.respond(None)
            else:
                ctx.respond(result)

        program.add_handler(
            method_name,
            handler_body,
            params=["actor_id", "kwargs"],
            effects=[
                EffectSpec(EffectKind.MERGE, "actors"),
                EffectSpec(EffectKind.ASSIGN, "actors"),
            ],
            reads=["actors"],
            doc=f"Lifted actor method {actor_class.name}.{method_name}.",
        )

    # A generic resume handler for mid-method receives: the sender addresses
    # the mailbox the actor is waiting on.
    def resume(ctx, actor_id, mailbox, payload=None):
        row = ctx.row("actors", actor_id)
        if row is None or row["waiting"] != mailbox:
            ctx.respond(None)
            return
        state = dict(row["state"])
        continuation = _find_continuation(actor_class, mailbox)
        result = continuation(state, payload) if continuation else None
        ctx.assign_field("actors", actor_id, "state", state)
        ctx.assign_field("actors", actor_id, "waiting", None)
        ctx.respond(result)

    program.add_handler(
        "resume",
        resume,
        params=["actor_id", "mailbox", "payload"],
        effects=[
            EffectSpec(EffectKind.MERGE, "actors"),
            EffectSpec(EffectKind.ASSIGN, "actors"),
        ],
        reads=["actors"],
        doc="Deliver a message to a mailbox an actor is blocked on (mid-method receive).",
    )

    program.validate()
    return program


def _find_continuation(actor_class: ActorClass, mailbox: str):
    """Locate the continuation registered for ``mailbox``.

    Continuations are discovered by running nothing: the lifting convention
    is that an actor class exposes its continuations in a ``continuations``
    attribute (populated by the test corpus) mapping mailbox -> callable.
    """
    return getattr(actor_class, "continuations", {}).get(mailbox)
