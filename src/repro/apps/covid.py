"""The paper's running example: a COVID-19 contact-tracing backend.

Two implementations are provided:

* :class:`SequentialCovidTracker` — a faithful transcription of the
  sequential pseudocode in Figure 2; the lifting/differential-testing
  baseline.
* :func:`build_covid_program` — the lifted HydroLogic program of Figure 3:
  ``people`` as a table of ``Person`` rows with a lattice ``contacts`` set,
  ``vaccine_count`` as a plain var, monotone handlers for ``add_person`` /
  ``add_contact`` / ``diagnosed`` / ``trace`` / ``likelihood`` and the
  non-monotone, serializable ``vaccinate`` handler with its non-negativity
  invariant.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional

from repro.cluster.domains import FailureDomain
from repro.core.facets import (
    AvailabilitySpec,
    ConsistencyLevel,
    ConsistencySpec,
    Invariant,
    TargetSpec,
)
from repro.core.handlers import EffectKind, EffectSpec
from repro.core.datamodel import FieldSpec
from repro.core.program import HydroProgram
from repro.lattices import BoolOr, SetUnion


def default_covid_predict(person_row: Optional[dict]) -> float:
    """A deterministic stand-in for the paper's black-box ML model.

    The paper imports ``covid_predict`` from an external model; any
    deterministic scoring function exercises the same UDF code path.  Risk
    grows with the number of contacts and jumps when the person already
    tested positive.
    """
    if person_row is None:
        return 0.0
    contacts = person_row.get("contacts")
    contact_count = len(contacts) if contacts is not None else 0
    base = min(0.9, 0.05 * contact_count)
    covid = person_row.get("covid")
    has_covid = bool(covid) if covid is not None else False
    return 1.0 if has_covid else base


# -- Figure 2: the sequential baseline --------------------------------------------


class SequentialCovidTracker:
    """Line-for-line Python version of the Figure 2 pseudocode."""

    def __init__(self, vaccine_count: int = 0,
                 covid_predict: Callable[[Optional[dict]], float] = default_covid_predict) -> None:
        self.people: dict[Hashable, dict] = {}
        self.vaccine_count = vaccine_count
        self.alerts: list[Hashable] = []
        self._covid_predict = covid_predict

    def add_person(self, pid: Hashable, country: str = "") -> None:
        self.people[pid] = {
            "pid": pid,
            "country": country,
            "contacts": set(),
            "covid": False,
            "vaccinated": False,
        }

    def add_contact(self, id1: Hashable, id2: Hashable) -> None:
        self.people[id1]["contacts"].add(id2)
        self.people[id2]["contacts"].add(id1)

    def trace(self, start_id: Hashable) -> set[Hashable]:
        """Transitive closure of the contact relation from ``start_id``."""
        seen: set[Hashable] = set()
        frontier = set(self.people.get(start_id, {}).get("contacts", set()))
        while frontier:
            nxt: set[Hashable] = set()
            for pid in frontier:
                if pid in seen:
                    continue
                seen.add(pid)
                nxt.update(self.people.get(pid, {}).get("contacts", set()))
            frontier = nxt - seen
        seen.discard(start_id)
        return seen

    def diagnosed(self, pid: Hashable) -> list[Hashable]:
        self.people[pid]["covid"] = True
        alerted = sorted(self.trace(pid), key=repr)
        self.alerts.extend(alerted)
        return alerted

    def likelihood(self, pid: Hashable) -> float:
        return self._covid_predict(self.people.get(pid))

    def vaccinate(self, pid: Hashable) -> bool:
        """Allocate a vaccine; fails (returns False) when inventory is empty."""
        if self.vaccine_count <= 0 or pid not in self.people:
            return False
        self.people[pid]["vaccinated"] = True
        self.vaccine_count -= 1
        return True


# -- Figure 3: the lifted HydroLogic program ----------------------------------------


def build_covid_program(
    vaccine_count: int = 0,
    covid_predict: Callable[[Optional[dict]], float] = default_covid_predict,
) -> HydroProgram:
    """Build the lifted COVID tracker as a :class:`HydroProgram`."""
    program = HydroProgram("covid_tracker")

    program.add_class(
        "Person",
        fields=[
            FieldSpec("pid", int),
            FieldSpec("country", str, default=""),
            FieldSpec("contacts", lattice=SetUnion),
            FieldSpec("covid", lattice=BoolOr),
            FieldSpec("vaccinated", lattice=BoolOr),
        ],
        key="pid",
        partition_by="country",
    )
    program.add_table("people", "Person")
    program.add_var("vaccine_count", initial=vaccine_count)

    program.add_udf("covid_predict", covid_predict)

    # The contact relation as adjacency: pid -> that person's contact set.
    # A named view, so one tick builds it once however many traces it serves.
    def contact_graph(view):
        return {row["pid"]: row["contacts"] for row in view.scan("people")}

    program.add_query("contact_graph", contact_graph, reads=["people"], monotone=True)

    # query transitive(p, p1): the recursive contact closure of Figure 3 lines 16-18,
    # i.e. every (p, p1) joined by a path of one or more contact edges.  Evaluated
    # on demand: a search from each requested source, O(V + E) per source.
    def transitive(view, start_pid=None):
        graph = view.query("contact_graph")
        sources = graph if start_pid is None else (start_pid,)
        return {(source, dest) for source in sources for dest in _reachable(graph, source)}

    program.add_query("transitive", transitive, reads=["people", "contact_graph"],
                      monotone=True, recursive=True)

    # on add_person(pid): monotone merge into people.
    def add_person(ctx, pid, country=""):
        ctx.merge_row("people", pid=pid, country=country)
        ctx.respond("OK")

    program.add_handler(
        "add_person",
        add_person,
        params=["pid", "country"],
        effects=[EffectSpec(EffectKind.MERGE, "people")],
        reads=["people"],
        doc="Register a person (monotone).",
    )

    # on add_contact(p, p1): two monotone merges into contact sets.
    def add_contact(ctx, id1, id2):
        ctx.merge_field("people", id1, "contacts", SetUnion({id2}))
        ctx.merge_field("people", id2, "contacts", SetUnion({id1}))
        ctx.respond("OK")

    program.add_handler(
        "add_contact",
        add_contact,
        params=["id1", "id2"],
        effects=[EffectSpec(EffectKind.MERGE, "people")],
        reads=["people"],
        doc="Record a contact pair (monotone).",
    )

    # on trace(p): pure monotone query over the closure.
    def trace(ctx, pid):
        reachable = sorted(
            {dest for (_, dest) in ctx.query("transitive", pid) if dest != pid}, key=repr
        )
        ctx.respond(reachable)

    program.add_handler(
        "trace",
        trace,
        params=["pid"],
        effects=[],
        reads=["people"],
        queries=["transitive"],
        doc="Transitive closure of a person's contacts (monotone, read-only).",
    )

    # on diagnosed(pid): monotone flag merge + async alerts.
    def diagnosed(ctx, pid):
        ctx.merge_field("people", pid, "covid", BoolOr(True))
        reachable = sorted(
            {dest for (_, dest) in ctx.query("transitive", pid) if dest != pid}, key=repr
        )
        for person in reachable:
            ctx.send("alert", {"pid": person, "source": pid})
        ctx.respond(reachable)

    program.add_handler(
        "diagnosed",
        diagnosed,
        params=["pid"],
        effects=[
            EffectSpec(EffectKind.MERGE, "people"),
            EffectSpec(EffectKind.SEND, "alert"),
        ],
        reads=["people"],
        queries=["transitive"],
        doc="Mark a diagnosis and alert everyone transitively in contact (monotone).",
    )

    # on likelihood(pid): UDF call, read-only.
    def likelihood(ctx, pid):
        ctx.respond(ctx.call_udf("covid_predict", _row_for_udf(ctx, pid)))

    program.add_handler(
        "likelihood",
        likelihood,
        params=["pid"],
        effects=[],
        reads=["people"],
        udfs=["covid_predict"],
        availability=AvailabilitySpec(FailureDomain.AVAILABILITY_ZONE, failures=1),
        target=TargetSpec(latency_ms=200.0, cost_units=0.1, processor="gpu"),
        doc="Invoke the black-box risk model (read-only UDF).",
    )

    # on vaccinate(pid): non-monotone decrement guarded by invariants.
    def vaccinate(ctx, pid):
        ctx.merge_field("people", pid, "vaccinated", BoolOr(True))
        ctx.assign_var("vaccine_count", ctx.var("vaccine_count") - 1)
        ctx.respond("OK")

    vaccine_invariant = Invariant(
        "vaccine_count_non_negative",
        lambda view: view.var("vaccine_count") >= 0,
        "vaccine inventory can never go negative",
    )
    program.add_handler(
        "vaccinate",
        vaccinate,
        params=["pid"],
        effects=[
            EffectSpec(EffectKind.MERGE, "people"),
            EffectSpec(EffectKind.ASSIGN, "vaccine_count"),
        ],
        reads=["people", "vaccine_count"],
        consistency=ConsistencySpec(
            ConsistencyLevel.SERIALIZABLE, invariants=(vaccine_invariant,)
        ),
        doc="Allocate a vaccine (non-monotone, serializable, invariant-guarded).",
    )

    # Availability and target facet defaults from Figure 3 lines 37-43.
    program.set_default_availability(
        AvailabilitySpec(FailureDomain.AVAILABILITY_ZONE, failures=2)
    )
    program.set_default_target(TargetSpec(latency_ms=100.0, cost_units=0.01))

    program.validate()
    return program


def _reachable(graph, source) -> set:
    """Everything one or more edges away from ``source`` (itself only via a cycle)."""
    seen: set = set()
    frontier = list(graph.get(source, ()))
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(graph.get(node, ()))
    return seen


def _row_for_udf(ctx, pid):
    """Fetch the row passed to the covid_predict UDF, tolerating unknown pids."""
    row = ctx.row("people", pid)
    if row is None:
        return None
    return {
        "pid": row["pid"],
        "country": row["country"],
        "contacts": set(row["contacts"].elements),
        "covid": bool(row["covid"]),
        "vaccinated": bool(row["vaccinated"]),
    }
