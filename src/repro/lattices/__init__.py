"""Join-semilattices and CRDT-style state for monotone distributed programs.

The paper's program-semantics and consistency facets lean on join-semilattices
as the algebraic foundation of coordination-free computation (ACID 2.0,
CRDTs, the CALM theorem).  This package provides:

* :class:`~repro.lattices.base.Lattice` — the abstract join-semilattice
  protocol (``merge``, partial order, bottom element).
* Primitive lattices — booleans under OR/AND, numbers under max/min.
* Collection lattices — grow-only sets, maps of lattices, multisets.
* Counter CRDTs — grow-only and PN counters.
* Ordering metadata — vector clocks, last-writer-wins registers,
  dominating pairs and causal (vector-clock-tagged) values.
* Composites — pairs and labelled products of lattices, plus a check
  that a function between lattices is monotone on sample points.

Every lattice in this package satisfies, and is property-tested for, the
semilattice laws: associativity, commutativity and idempotence of ``merge``,
and the induced partial order ``a <= a.merge(b)``.
"""

from repro.lattices.base import BOTTOM, Lattice, join_all
from repro.lattices.counters import GCounter, PNCounter
from repro.lattices.lww import LWWRegister
from repro.lattices.maps import MapLattice
from repro.lattices.pairs import DominatingPair, PairLattice, ProductLattice
from repro.lattices.primitives import BoolAnd, BoolOr, MaxInt, MinInt
from repro.lattices.sets import SetUnion, TwoPhaseSet
from repro.lattices.vector_clock import CausalValue, VectorClock
from repro.lattices.monotone import is_monotone_on_samples

__all__ = [
    "BOTTOM",
    "Lattice",
    "join_all",
    "BoolAnd",
    "BoolOr",
    "MaxInt",
    "MinInt",
    "SetUnion",
    "TwoPhaseSet",
    "MapLattice",
    "GCounter",
    "PNCounter",
    "VectorClock",
    "CausalValue",
    "LWWRegister",
    "PairLattice",
    "ProductLattice",
    "DominatingPair",
    "is_monotone_on_samples",
]
