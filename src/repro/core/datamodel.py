"""HydroLogic's data model facet (§5): classes, tables, vars and partitioning.

A data model consists of entity classes (named, typed fields with a key and
an optional partition attribute), tables of those classes, and scalar
variables.  Fields may be *lattice-typed* — in which case updates are
monotone merges — or plain values, in which case updates are last-writer
assignments (and therefore non-monotone from the analysis's perspective).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Optional

from repro.core.errors import SpecificationError
from repro.lattices.base import Lattice


@dataclass(frozen=True)
class FieldSpec:
    """One field of an entity class.

    ``lattice`` names the lattice class used to hold the field (e.g.
    :class:`~repro.lattices.sets.SetUnion` for ``contacts``); ``None`` means
    a plain, assign-only value (e.g. ``country``).
    """

    name: str
    py_type: type = object
    lattice: Optional[type[Lattice]] = None
    default: Any = None

    @property
    def is_lattice(self) -> bool:
        return self.lattice is not None

    def initial_value(self) -> Any:
        if self.lattice is not None:
            return self.lattice.bottom() if self.default is None else self.default
        return self.default


class Row(dict):
    """A row of a table: a ``dict`` that nothing writes once it is built.

    Its ``repr``, ``==`` and structural digest are a plain dict's; every
    mutator raises ``TypeError``.  So a stored row is shared, never copied,
    by handler reads, snapshots, gossip payloads and the undo journal, and
    a write builds the new row (:meth:`replace`) and rebinds the table's
    entry, as a lattice value is rebound to the result of ``merge``.
    """

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a stored row is read-only: record an effect to change it")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> tuple:
        return Row, (dict(self),)

    def replace(self, changes: Mapping[str, Any]) -> "Row":
        """A new row: this one with ``changes`` written over it."""
        return Row(self, **changes)


@dataclass(frozen=True)
class EntityClass:
    """A persistent class, e.g. ``Person`` in the paper's running example."""

    name: str
    fields: tuple[FieldSpec, ...]
    key: str
    partition_by: Optional[str] = None

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.fields]
        if len(names) != len(set(names)):
            raise SpecificationError(f"class {self.name!r} has duplicate field names")
        if self.key not in names:
            raise SpecificationError(
                f"class {self.name!r} key {self.key!r} is not one of its fields {names}"
            )
        if self.partition_by is not None and self.partition_by not in names:
            raise SpecificationError(
                f"class {self.name!r} partition attribute {self.partition_by!r} "
                f"is not one of its fields {names}"
            )
        # Lookup tables derived from ``fields`` once (the class is frozen):
        # every row build and field effect goes through them.
        derived = object.__setattr__
        derived(self, "_specs", {spec.name: spec for spec in self.fields})
        derived(self, "lattice_fields",
                tuple(spec.name for spec in self.fields if spec.is_lattice))
        derived(self, "plain_fields",
                tuple(spec.name for spec in self.fields if not spec.is_lattice))

    def field_spec(self, name: str) -> FieldSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise SpecificationError(f"class {self.name!r} has no field {name!r}")
        return spec

    def new_row(self, **values: Any) -> Row:
        """Build a row with defaults filled in and values validated."""
        specs = self._specs
        if not values.keys() <= specs.keys():
            raise SpecificationError(
                f"class {self.name!r} has no fields {sorted(set(values) - specs.keys())}"
            )
        row: dict[str, Any] = {}
        for spec in self.fields:
            if spec.name in values:
                row[spec.name] = self._coerce(spec, values[spec.name])
            else:
                row[spec.name] = spec.initial_value()
        if row[self.key] is None:
            raise SpecificationError(f"class {self.name!r} row is missing its key {self.key!r}")
        return Row(row)

    def _coerce(self, spec: FieldSpec, value: Any) -> Any:
        if spec.lattice is not None and not isinstance(value, Lattice):
            # Convenience: wrap raw values into their declared lattice type.
            try:
                return spec.lattice(value)
            except Exception as exc:  # pragma: no cover - defensive
                raise SpecificationError(
                    f"cannot coerce {value!r} into lattice {spec.lattice.__name__} "
                    f"for field {spec.name!r}"
                ) from exc
        return value


@dataclass(frozen=True)
class TableDecl:
    """A named table of entity-class rows, keyed by the class key."""

    name: str
    entity: EntityClass


@dataclass(frozen=True)
class VarDecl:
    """A named top-level variable.

    A lattice-typed var only supports merges; a plain var supports arbitrary
    assignment (and is therefore a non-monotone state cell, like the paper's
    ``vaccine_count``).
    """

    name: str
    lattice: Optional[type[Lattice]] = None
    initial: Any = None

    @property
    def is_lattice(self) -> bool:
        return self.lattice is not None

    def initial_value(self) -> Any:
        if self.lattice is not None:
            return self.lattice.bottom() if self.initial is None else self.initial
        return self.initial


class DataModel:
    """The collection of classes, tables and vars declared by a program."""

    def __init__(self) -> None:
        self.classes: dict[str, EntityClass] = {}
        self.tables: dict[str, TableDecl] = {}
        self.vars: dict[str, VarDecl] = {}

    # -- declaration ------------------------------------------------------------

    def add_class(self, entity: EntityClass) -> EntityClass:
        if entity.name in self.classes:
            raise SpecificationError(f"class {entity.name!r} already declared")
        self.classes[entity.name] = entity
        return entity

    def add_table(self, name: str, entity: EntityClass | str) -> TableDecl:
        if name in self.tables:
            raise SpecificationError(f"table {name!r} already declared")
        if isinstance(entity, str):
            if entity not in self.classes:
                raise SpecificationError(f"table {name!r} references unknown class {entity!r}")
            entity = self.classes[entity]
        elif entity.name not in self.classes:
            self.add_class(entity)
        decl = TableDecl(name, entity)
        self.tables[name] = decl
        return decl

    def add_var(self, name: str, lattice: Optional[type[Lattice]] = None, initial: Any = None) -> VarDecl:
        if name in self.vars:
            raise SpecificationError(f"var {name!r} already declared")
        decl = VarDecl(name, lattice, initial)
        self.vars[name] = decl
        return decl

    # -- lookup -----------------------------------------------------------------

    def table(self, name: str) -> TableDecl:
        if name not in self.tables:
            raise SpecificationError(f"unknown table {name!r}")
        return self.tables[name]

    def var(self, name: str) -> VarDecl:
        if name not in self.vars:
            raise SpecificationError(f"unknown var {name!r}")
        return self.vars[name]

    def has_var(self, name: str) -> bool:
        return name in self.vars

    def state_names(self) -> list[str]:
        return list(self.tables) + list(self.vars)

    def describe(self) -> str:
        lines = ["DataModel:"]
        for name, decl in self.tables.items():
            entity = decl.entity
            fields = ", ".join(
                f"{spec.name}{'[' + spec.lattice.__name__ + ']' if spec.lattice else ''}"
                for spec in entity.fields
            )
            lines.append(
                f"  table {name}: {entity.name}({fields}) key={entity.key} "
                f"partition={entity.partition_by or entity.key}"
            )
        for name, decl in self.vars.items():
            kind = decl.lattice.__name__ if decl.lattice else "plain"
            lines.append(f"  var {name}: {kind} = {decl.initial_value()!r}")
        return "\n".join(lines)
