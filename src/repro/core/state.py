"""Program state and deferred effects for the transducer event loop.

State is split per the data model: tables (keyed rows whose lattice fields
merge monotonically) and vars (lattice or plain).  Handlers never mutate
state directly; they emit :class:`Effect` records which the interpreter
applies atomically at end of tick — exactly the paper's "mutations are
deferred until the end of a clock tick" semantics (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Mapping, Optional

from repro.cluster.transport import payload_digest
from repro.cluster.watermark import StampLog
from repro.core.datamodel import DataModel, EntityClass, Row, TableDecl
from repro.core.errors import SpecificationError
from repro.lattices.base import Lattice


# -- effects ---------------------------------------------------------------------


@dataclass(frozen=True)
class Effect:
    """Base class for deferred state changes and outbound messages."""


@dataclass(frozen=True)
class MergeRowEffect(Effect):
    """Monotone upsert: lattice fields merge, plain fields join (a default
    loses to a set value; two set values resolve by a fixed order)."""

    table: str
    row: Mapping[str, Any]


@dataclass(frozen=True)
class MergeFieldEffect(Effect):
    """Monotone merge into one lattice field of one row."""

    table: str
    key: Hashable
    field_name: str
    value: Lattice


@dataclass(frozen=True)
class AssignFieldEffect(Effect):
    """Non-monotone overwrite of one field of one row."""

    table: str
    key: Hashable
    field_name: str
    value: Any


@dataclass(frozen=True)
class DeleteRowEffect(Effect):
    """Non-monotone removal of a row."""

    table: str
    key: Hashable


@dataclass(frozen=True)
class MergeVarEffect(Effect):
    """Monotone merge into a lattice-typed variable."""

    var: str
    value: Lattice


@dataclass(frozen=True)
class AssignVarEffect(Effect):
    """Non-monotone assignment to a variable."""

    var: str
    value: Any


@dataclass(frozen=True)
class SendEffect(Effect):
    """Asynchronous send into a mailbox, possibly on another node."""

    mailbox: str
    payload: Any
    destination: Optional[Hashable] = None


# -- state -----------------------------------------------------------------------
#
# Lattice values and rows are immutable, so a row field or var is only ever
# *rebound*: to the result of ``merge`` or to a value a peer or handler handed
# over, and a row to a new :class:`~repro.core.datamodel.Row` holding it.
# That is what lets tick reads, snapshots, gossip payloads and the undo
# journal share rows and lattice objects instead of copying them: ``merge``
# returns an operand that already is the join, so converged replicas end up
# holding the same objects and only a concurrent join allocates.


def _join_plain(current: Any, incoming: Any, bottom: Any) -> Any:
    """Join of two replicas' values of a plain field, reusing an operand.

    The field's default (``bottom``) and ``None`` lose to any set value;
    two set values resolve by their structural digest, a fixed total order
    no ``PYTHONHASHSEED`` moves.  The rule is commutative, associative and
    idempotent, so replicas that saw the same writes hold the same value
    whatever order the writes arrived in.
    """
    if incoming is None or incoming == bottom or incoming == current:
        return current
    if current is None or current == bottom:
        return incoming
    return max(current, incoming, key=payload_digest)


#: What a change log stamps and a gossip payload carries: ``(table, key)``
#: names a row, ``(None, name)`` a var.
Item = tuple[Optional[str], Hashable]


class ChangeLog(StampLog):
    """Which rows and vars of one replica changed, in the order they did.

    A :class:`~repro.cluster.watermark.StampLog` of items, plus
    ``sources``: the peer an item's latest change was adopted from
    unmodified (absent for a local commit or a genuine merge), which holds
    the value already.  An adoption also opens a *ward*,
    ``wards[source][item] = (tag, reviews waited)`` with ``tag`` the stamp
    the peer's own log had reached: the peer, not this replica, is on the
    hook for delivering the change elsewhere.  A peer's genuine merge into
    an item already logged here is no new stamp: the item becomes that
    peer's ward too (:meth:`share`), the peer on the hook for its part as the
    stamp's owner is for the rest.  The replication layer closes wards;
    stamping the item again closes every one on it.
    """

    def __init__(self, seq: int = 0) -> None:
        super().__init__(seq)
        self.sources: dict[Item, Hashable] = {}
        #: Per origin, its open wards; an origin with none is not listed.
        self.wards: dict[Hashable, dict[Item, tuple[int, int]]] = {}

    def record(self, item: Item, source: Optional[Hashable] = None, tag: int = 0) -> None:
        if item in self.stamps and self.wards:
            for origin in [origin for origin, wards in self.wards.items()
                           if wards.pop(item, None) is not None and not wards]:
                del self.wards[origin]
        self.stamp(item)
        if source is None:
            self.sources.pop(item, None)
        else:
            self.sources[item] = source
            self.wards.setdefault(source, {})[item] = (tag, 0)

    def share(self, item: Item, source: Hashable, tag: int) -> bool:
        """Put ``source`` on the hook for its part of a logged item, at
        ``tag``; ``False``, and nothing done, if the item is not logged."""
        if item not in self.stamps:
            return False
        self.wards.setdefault(source, {})[item] = (tag, 0)
        return True


class UndoJournal:
    """First-touch pre-images of the rows and vars a batch of effects changes.

    ``ProgramState.apply`` records into it before each change; ``rollback``
    puts the state back exactly (the same row objects, in the same order), at
    a cost proportional to the batch, not to the state.  A pre-image is the
    row itself (``None`` for an absent one): a write rebinds, never edits it.
    """

    def __init__(self, state: "ProgramState") -> None:
        self._state = state
        self._rows: dict[tuple["TableState", Hashable], Optional[Row]] = {}
        self._row_order: dict["TableState", list[Hashable]] = {}
        self._vars: dict[str, Any] = {}

    def note_row(self, table: "TableState", key: Hashable, deleting: bool = False) -> None:
        row = self._rows.setdefault((table, key), table.rows.get(key))
        if deleting and row is not None and table not in self._row_order:
            # Putting a deleted row back would move it to the end of the table.
            self._row_order[table] = list(table.rows)

    def note_var(self, name: str) -> None:
        self._vars.setdefault(name, self._state.vars[name])

    def rollback(self) -> None:
        for (table, key), before in self._rows.items():
            if before is None:
                table.rows.pop(key, None)
            else:
                table.rows[key] = before
        for table, order in self._row_order.items():
            table.rows = {key: table.rows[key] for key in order if key in table.rows}
        self._state.vars.update(self._vars)


class TableState:
    """Rows of one table, keyed by the entity key.

    A stored :class:`~repro.core.datamodel.Row` is never written: every
    write builds the new row and rebinds ``rows[key]``.
    """

    def __init__(self, decl: TableDecl) -> None:
        self.decl = decl
        self.rows: dict[Hashable, Row] = {}

    @property
    def entity(self) -> EntityClass:
        return self.decl.entity

    def get(self, key: Hashable) -> Optional[Row]:
        return self.rows.get(key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows.values())

    def keys(self) -> Iterable[Hashable]:
        return self.rows.keys()

    def merge_row(self, row: Mapping[str, Any]) -> None:
        """Monotone upsert of a handler-supplied row (MergeRowEffect)."""
        filled = self.entity.new_row(**row)
        self.merge_peer_row(filled[self.entity.key], filled)

    def merge_peer_row(self, key: Hashable, row: Row) -> bool:
        """Join a complete row of this entity into the one at ``key``.

        Returns whether it taught this replica anything.  The join is
        fieldwise, ``merge`` for lattice fields and ``_join_plain`` for plain
        ones, and keeps the stored row when nothing inflated.  ``row`` (a
        handler's, built by ``new_row``, or a peer's from a gossip payload) is
        not rebuilt, and an unseen one is stored as is: rows are immutable.
        """
        existing = self.rows.get(key)
        if existing is None:
            self.rows[key] = row
            return True
        if existing == row:
            # Nothing to learn.  For a converged row this is a pointer
            # comparison per field: dict equality tests identity first.
            return False
        entity = self.entity
        changed = {}
        for name in entity.lattice_fields:
            current = existing[name]
            joined = current.merge(row[name])
            if joined is not current:
                changed[name] = joined
        for name in entity.plain_fields:
            current = existing[name]
            joined = _join_plain(current, row[name], entity.field_spec(name).default)
            if joined is not current:
                changed[name] = joined
        if not changed:
            return False
        self.rows[key] = existing.replace(changed)
        return True

    def merge_field(self, key: Hashable, field_name: str, value: Lattice) -> None:
        if not self.entity.field_spec(field_name).is_lattice:
            raise SpecificationError(
                f"field {field_name!r} of table {self.decl.name!r} is not lattice-typed; "
                "use an assign effect instead"
            )
        row = self._row_or_default(key)
        self.rows[key] = row.replace({field_name: row[field_name].merge(value)})

    def assign_field(self, key: Hashable, field_name: str, value: Any) -> None:
        self.entity.field_spec(field_name)
        self.rows[key] = self._row_or_default(key).replace({field_name: value})

    def _row_or_default(self, key: Hashable) -> Row:
        row = self.rows.get(key)
        return self.entity.new_row(**{self.entity.key: key}) if row is None else row

    def delete(self, key: Hashable) -> None:
        self.rows.pop(key, None)


class ProgramState:
    """All tables and vars of one program replica."""

    def __init__(self, datamodel: DataModel) -> None:
        self.datamodel = datamodel
        self.tables: dict[str, TableState] = {
            name: TableState(decl) for name, decl in datamodel.tables.items()
        }
        self.vars: dict[str, Any] = {
            name: decl.initial_value() for name, decl in datamodel.vars.items()
        }
        #: Attached by a replica that gossips deltas; ``None`` logs nothing.
        self.change_log: Optional[ChangeLog] = None

    # -- reads ------------------------------------------------------------------

    def table(self, name: str) -> TableState:
        if name not in self.tables:
            raise SpecificationError(f"unknown table {name!r}")
        return self.tables[name]

    def var(self, name: str) -> Any:
        if name not in self.vars:
            raise SpecificationError(f"unknown var {name!r}")
        return self.vars[name]

    # -- effect application -----------------------------------------------------

    def apply(self, effect: Effect, journal: Optional[UndoJournal] = None) -> None:
        """Apply one deferred effect; sends/responses are not state changes.

        With a ``journal``, the pre-image of whatever the effect is about to
        touch is recorded first, so the caller can roll the change back.
        """
        if isinstance(effect, MergeRowEffect):
            table = self.table(effect.table)
            if journal is not None:
                journal.note_row(table, effect.row.get(table.entity.key))
            table.merge_row(effect.row)
        elif isinstance(effect, MergeFieldEffect):
            table = self.table(effect.table)
            if journal is not None:
                journal.note_row(table, effect.key)
            table.merge_field(effect.key, effect.field_name, effect.value)
        elif isinstance(effect, AssignFieldEffect):
            table = self.table(effect.table)
            if journal is not None:
                journal.note_row(table, effect.key)
            table.assign_field(effect.key, effect.field_name, effect.value)
        elif isinstance(effect, DeleteRowEffect):
            table = self.table(effect.table)
            if journal is not None:
                journal.note_row(table, effect.key, deleting=True)
            table.delete(effect.key)
        elif isinstance(effect, MergeVarEffect):
            decl = self.datamodel.var(effect.var)
            if not decl.is_lattice:
                raise SpecificationError(
                    f"var {effect.var!r} is not lattice-typed; merge is undefined"
                )
            if journal is not None:
                journal.note_var(effect.var)
            self.vars[effect.var] = self.vars[effect.var].merge(effect.value)
        elif isinstance(effect, AssignVarEffect):
            self.datamodel.var(effect.var)
            if journal is not None:
                journal.note_var(effect.var)
            self.vars[effect.var] = effect.value
        elif isinstance(effect, SendEffect):
            raise SpecificationError(
                f"{type(effect).__name__} is a communication effect, not a state change"
            )
        else:  # pragma: no cover - future effect kinds
            raise SpecificationError(f"unknown effect type {type(effect).__name__}")

    def apply_all(self, effects: Iterable[Effect],
                  journal: Optional[UndoJournal] = None) -> None:
        for effect in effects:
            self.apply(effect, journal)

    def log_effects(self, effects: Iterable[Effect]) -> None:
        """Stamp what a committed request's state effects touched.

        The interpreter calls this once a request's effects are final, so a
        request rolled back through an :class:`UndoJournal` logs nothing.
        """
        log = self.change_log
        if log is None:
            return
        for effect in effects:
            if isinstance(effect, MergeRowEffect):
                log.record((effect.table,
                            effect.row.get(self.table(effect.table).entity.key)))
            elif isinstance(effect, (MergeVarEffect, AssignVarEffect)):
                log.record((None, effect.var))
            else:
                log.record((effect.table, effect.key))

    def snapshot(self) -> "ProgramState":
        """An isolated copy by structural sharing: one shallow dict per table.

        Applying effects to either side never shows on the other — rows and
        lattice values are only ever rebound (the rule above) — so the copy
        shares every row.  Nothing in ``src/`` calls it since gossip ships
        deltas; the end-to-end benchmark's traced roll-up still counts calls
        to it.
        """
        clone = ProgramState(self.datamodel)
        for name, table in self.tables.items():
            clone.tables[name].rows = dict(table.rows)
        clone.vars = dict(self.vars)
        return clone

    # -- replica merge ----------------------------------------------------------

    def export(self, items: Optional[Iterable[Item]] = None) -> dict[Item, Any]:
        """The gossip entries for ``items`` (default: the whole state).

        Rows are shared: they are immutable, so a payload handed to the
        transport never changes.  An item whose row has since been deleted is
        left out.  Entries keep the order of ``items``.
        """
        if items is None:
            items = [(name, key) for name, table in self.tables.items()
                     for key in table.rows]
            items += [(None, name) for name in self.vars]
        entries = {}
        for item in items:
            name, key = item
            if name is None:
                entries[item] = self.vars[key]
            else:
                row = self.table(name).rows.get(key)
                if row is not None:
                    entries[item] = row
        return entries

    def merge_entries(self, entries: Mapping[Item, Any],
                      source: Optional[Hashable] = None, tag: int = 0) -> None:
        """Merge a peer replica's exported entries into this state.

        Lattice fields and vars merge; plain fields join (``_join_plain``);
        plain vars keep the local value when present (their writers are
        ordered by the consensus log, not by blind state merge).  ``entries`` is
        only read.  An entry that actually inflated this state is stamped in
        the change log — under ``source``, as its ward at ``tag``, when this
        replica now holds exactly the peer's value.  A genuine merge from
        ``source`` into an item the log holds is ``source``'s ward instead.
        """
        log = self.change_log
        for item, value in entries.items():
            name, key = item
            if name is None:
                current = self.vars[key]
                if self.datamodel.var(key).is_lattice:
                    merged = current.merge(value)
                else:
                    merged = value if current is None else current
                if merged is current:
                    continue
                self.vars[key] = merged
                adopted = merged is value
            else:
                table = self.table(name)
                if not table.merge_peer_row(key, value):
                    continue
                adopted = table.rows[key] == value
            if log is not None and (adopted or source is None
                                    or not log.share(item, source, tag)):
                log.record(item, source if adopted else None, tag)

    def merge_from(self, other: "ProgramState") -> None:
        """Merge another replica's whole state into this one."""
        self.merge_entries(other.export())
