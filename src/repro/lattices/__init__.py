"""Join-semilattices and CRDT-style state for monotone distributed programs.

The paper's program-semantics and consistency facets lean on join-semilattices
as the algebraic foundation of coordination-free computation (ACID 2.0,
CRDTs, the CALM theorem).  This package keeps the lattices its programs
store:

* :class:`~repro.lattices.base.Lattice` — the abstract join-semilattice
  protocol (``merge``, partial order, bottom element) and the polymorphic
  :data:`~repro.lattices.base.BOTTOM`.
* Primitive lattices — ``BoolOr`` flags and ``MaxInt`` numbers.
* Collection lattices — grow-only sets (``SetUnion``), add/remove sets
  (``TwoPhaseSet``) and maps of lattices (``MapLattice``).
* The grow-only counter ``GCounter``.
* Ordering metadata — ``VectorClock`` (causal broadcast) and
  ``LWWRegister`` (the KVS's last-writer-wins values).
* :func:`~repro.lattices.monotone.is_monotone_on_samples`, a sampled check
  that a function between lattices is monotone.

Every lattice in this package satisfies, and is property-tested for, the
semilattice laws: associativity, commutativity and idempotence of ``merge``,
and the induced partial order ``a <= a.merge(b)``.  Each one's ``repr`` is
canonical, because digests hash it.
"""

from repro.lattices.base import BOTTOM, Lattice
from repro.lattices.counters import GCounter
from repro.lattices.lww import LWWRegister
from repro.lattices.maps import MapLattice
from repro.lattices.primitives import BoolOr, MaxInt
from repro.lattices.sets import SetUnion, TwoPhaseSet
from repro.lattices.vector_clock import VectorClock
from repro.lattices.monotone import is_monotone_on_samples

__all__ = [
    "BOTTOM",
    "Lattice",
    "BoolOr",
    "MaxInt",
    "SetUnion",
    "TwoPhaseSet",
    "MapLattice",
    "GCounter",
    "VectorClock",
    "LWWRegister",
    "is_monotone_on_samples",
]
