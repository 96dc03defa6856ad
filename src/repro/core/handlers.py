"""Handlers, queries and UDFs: the statements of HydroLogic's semantics facet.

Handlers (``on`` blocks in Figure 3) react to messages in a mailbox.  Their
bodies are Python callables that receive a :class:`HandlerContext`, which
provides read access to the current tick's snapshot and *effect methods*
(merge / assign / send / respond) that record deferred effects instead of
mutating state.

Every handler carries an *effect signature*: the set of (kind, target)
effects it is allowed to perform plus the state it reads.  The signature is
what the monotonicity and CALM analyses reason over, and the context
enforces it at runtime — a handler declared monotone that attempts a bare
assignment raises :class:`~repro.core.errors.EffectViolation`.  This is the
dynamic stand-in for the monotone typechecking the paper calls for (§8.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Hashable, Iterable, Mapping, Optional, Sequence

from repro.core.datamodel import Row
from repro.core.errors import EffectViolation, SpecificationError
from repro.core.state import (
    AssignFieldEffect,
    AssignVarEffect,
    DeleteRowEffect,
    Effect,
    MergeFieldEffect,
    MergeRowEffect,
    MergeVarEffect,
    ProgramState,
    SendEffect,
)
from repro.lattices.base import Lattice


class EffectKind(str, Enum):
    """The kinds of effects a handler can declare."""

    MERGE = "merge"          # monotone lattice merge (row, field or var)
    ASSIGN = "assign"        # non-monotone overwrite
    DELETE = "delete"        # non-monotone removal
    SEND = "send"            # asynchronous message


@dataclass(frozen=True)
class EffectSpec:
    """One declared effect: a kind applied to a named target (table/var/mailbox)."""

    kind: EffectKind
    target: str

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.target})"


@dataclass(frozen=True)
class Query:
    """A named, referenceable query over the snapshot (like a SQL view).

    ``reads`` lists the tables/vars/queries the query depends on;
    ``monotone`` declares whether its output grows with its inputs.
    """

    name: str
    fn: Callable[..., Any]
    reads: tuple[str, ...] = ()
    monotone: bool = True

    def evaluate(self, view: "StateView", *args: Any, **kwargs: Any) -> Any:
        return self.fn(view, *args, **kwargs)


@dataclass
class UDF:
    """A black-box function (§3.1), memoized once per tick."""

    name: str
    fn: Callable[..., Any]

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.fn(*args, **kwargs)


@dataclass(frozen=True)
class Handler:
    """A message handler: the unit to which facets attach."""

    name: str
    body: Callable[..., Any]
    params: tuple[str, ...] = ()
    effects: tuple[EffectSpec, ...] = ()
    reads: tuple[str, ...] = ()
    queries: tuple[str, ...] = ()
    udfs: tuple[str, ...] = ()
    doc: str = ""

    def declares(self, kind: EffectKind, target: str) -> bool:
        return any(spec.kind == kind and spec.target == target for spec in self.effects)


class StateView:
    """Read-only access to program state, handed to queries and handlers.

    During a tick it wraps the interpreter's live state, which no effect
    touches until every body has run (see ``run_tick``).  It hands out the
    stored rows themselves, uncopied: a :class:`~repro.core.datamodel.Row`
    refuses every write, and an effect rebinds a row rather than editing it,
    so a row read during a tick keeps its pre-tick value after the tick.
    """

    def __init__(
        self,
        state: ProgramState,
        queries: Mapping[str, Query] | None = None,
    ) -> None:
        self._state = state
        self._queries = dict(queries or {})
        self._query_cache: dict[tuple, Any] = {}

    # -- table reads ------------------------------------------------------------

    def rows(self, table: str) -> list[Row]:
        return list(self._state.table(table))

    def row(self, table: str, key: Hashable) -> Optional[Row]:
        return self._state.table(table).get(key)

    def has_key(self, table: str, key: Hashable) -> bool:
        return key in self._state.table(table)

    def count(self, table: str) -> int:
        return len(self._state.table(table))

    def keys(self, table: str) -> list[Hashable]:
        return list(self._state.table(table).keys())

    # -- var reads --------------------------------------------------------------

    def var(self, name: str) -> Any:
        return self._state.var(name)

    # -- query evaluation --------------------------------------------------------

    def query(self, name: str, *args: Any, **kwargs: Any) -> Any:
        if name not in self._queries:
            raise SpecificationError(f"unknown query {name!r}")
        cache_key = (name, args, tuple(sorted(kwargs.items())))
        try:
            if cache_key in self._query_cache:
                return self._query_cache[cache_key]
        except TypeError:
            return self._queries[name].evaluate(self, *args, **kwargs)
        result = self._queries[name].evaluate(self, *args, **kwargs)
        self._query_cache[cache_key] = result
        return result


class HandlerContext:
    """The object a handler body receives: snapshot reads + deferred effects."""

    def __init__(
        self,
        handler: Handler,
        view: StateView,
        udfs: Mapping[str, UDF] | None = None,
        udf_memo: dict | None = None,
    ) -> None:
        self.handler = handler
        self.view = view
        self.effects: list[Effect] = []
        self.response: Any = None
        self._udfs = dict(udfs or {})
        self._udf_memo = udf_memo if udf_memo is not None else {}

    # -- reads (delegate to the snapshot view) -----------------------------------

    def rows(self, table: str) -> list[Row]:
        return self.view.rows(table)

    def row(self, table: str, key: Hashable) -> Optional[Row]:
        return self.view.row(table, key)

    def has_key(self, table: str, key: Hashable) -> bool:
        return self.view.has_key(table, key)

    def count(self, table: str) -> int:
        return self.view.count(table)

    def keys(self, table: str) -> list[Hashable]:
        return self.view.keys(table)

    def var(self, name: str) -> Any:
        return self.view.var(name)

    def query(self, name: str, *args: Any, **kwargs: Any) -> Any:
        return self.view.query(name, *args, **kwargs)

    # -- effects ------------------------------------------------------------------

    def merge_row(self, table: str, **row: Any) -> None:
        self._check(EffectKind.MERGE, table)
        self.effects.append(MergeRowEffect(table, row))

    def merge_field(self, table: str, key: Hashable, field_name: str, value: Lattice) -> None:
        self._check(EffectKind.MERGE, table)
        self.effects.append(MergeFieldEffect(table, key, field_name, value))

    def assign_field(self, table: str, key: Hashable, field_name: str, value: Any) -> None:
        self._check(EffectKind.ASSIGN, table)
        self.effects.append(AssignFieldEffect(table, key, field_name, value))

    def delete_row(self, table: str, key: Hashable) -> None:
        self._check(EffectKind.DELETE, table)
        self.effects.append(DeleteRowEffect(table, key))

    def merge_var(self, var: str, value: Lattice) -> None:
        self._check(EffectKind.MERGE, var)
        self.effects.append(MergeVarEffect(var, value))

    def assign_var(self, var: str, value: Any) -> None:
        self._check(EffectKind.ASSIGN, var)
        self.effects.append(AssignVarEffect(var, value))

    def send(self, mailbox: str, payload: Any, destination: Optional[Hashable] = None) -> None:
        self._check(EffectKind.SEND, mailbox)
        self.effects.append(SendEffect(mailbox, payload, destination))

    def respond(self, value: Any) -> None:
        self.response = value

    # -- UDF invocation ------------------------------------------------------------

    def call_udf(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a UDF, memoized per (udf, arguments) within the current tick."""
        if name not in self._udfs:
            raise SpecificationError(f"unknown UDF {name!r}")
        memo_key = (name, args, tuple(sorted(kwargs.items())))
        try:
            if memo_key in self._udf_memo:
                return self._udf_memo[memo_key]
        except TypeError:
            return self._udfs[name](*args, **kwargs)
        result = self._udfs[name](*args, **kwargs)
        self._udf_memo[memo_key] = result
        return result

    # -- enforcement ----------------------------------------------------------------

    def _check(self, kind: EffectKind, target: str) -> None:
        if not self.handler.declares(kind, target):
            raise EffectViolation(
                f"handler {self.handler.name!r} performed undeclared effect "
                f"{kind.value}({target}); declared effects: {list(self.handler.effects)}"
            )
