"""Property-based tests: every lattice satisfies the semilattice laws.

The CALM theorem's guarantees rest entirely on merge being associative,
commutative and idempotent, and on updates being inflationary in the induced
order.  Hypothesis generates arbitrary lattice points per type and checks
the laws hold for all of them.  Lattice values are immutable: ``merge`` and
``join_all`` leave every operand as it was, which is what lets state, tick
reads and in-flight messages share one lattice object.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattices import (
    BOTTOM,
    BoolAnd,
    BoolOr,
    CausalValue,
    DominatingPair,
    GCounter,
    LWWRegister,
    MapLattice,
    MaxInt,
    MinInt,
    PNCounter,
    PairLattice,
    ProductLattice,
    SetUnion,
    TwoPhaseSet,
    VectorClock,
    is_monotone_on_samples,
    join_all,
)

REPLICAS = ["r1", "r2", "r3"]


# -- strategies ------------------------------------------------------------------

bool_or = st.booleans().map(BoolOr)
bool_and = st.booleans().map(BoolAnd)
max_int = st.integers(min_value=-1000, max_value=1000).map(MaxInt)
min_int = st.integers(min_value=-1000, max_value=1000).map(MinInt)
set_union = st.frozensets(st.integers(min_value=0, max_value=20), max_size=6).map(SetUnion)
two_phase = st.tuples(
    st.frozensets(st.integers(min_value=0, max_value=10), max_size=5),
    st.frozensets(st.integers(min_value=0, max_value=10), max_size=5),
).map(lambda pair: TwoPhaseSet(pair[0], pair[1]))
gcounter = st.dictionaries(st.sampled_from(REPLICAS), st.integers(0, 50), max_size=3).map(GCounter)
pncounter = st.tuples(gcounter, gcounter).map(lambda pair: PNCounter(pair[0], pair[1]))
vector_clock = st.dictionaries(st.sampled_from(REPLICAS), st.integers(0, 20), max_size=3).map(VectorClock)
lww = st.tuples(
    st.integers(0, 100), st.integers(-5, 5), st.sampled_from(REPLICAS)
).map(lambda t: LWWRegister(float(t[0]), t[1], t[2]))
map_lattice = st.dictionaries(
    st.sampled_from(["a", "b", "c"]), max_int, max_size=3
).map(MapLattice)

ALL_STRATEGIES = [
    ("BoolOr", bool_or),
    ("BoolAnd", bool_and),
    ("MaxInt", max_int),
    ("MinInt", min_int),
    ("SetUnion", set_union),
    ("TwoPhaseSet", two_phase),
    ("GCounter", gcounter),
    ("PNCounter", pncounter),
    ("VectorClock", vector_clock),
    ("LWWRegister", lww),
    ("MapLattice", map_lattice),
]

any_lattice_triple = st.one_of(
    *[st.tuples(strategy, strategy, strategy) for _, strategy in ALL_STRATEGIES]
)

#: The composites, nested over the types above; only the ``leq``,
#: immutability and ``join_all`` properties below run over them.
COMPOSITE_STRATEGIES = [
    ("PairLattice", st.builds(PairLattice, max_int, set_union)),
    ("ProductLattice", st.fixed_dictionaries(
        {}, optional={"count": max_int, "seen": set_union}).map(ProductLattice)),
    ("DominatingPair", st.builds(DominatingPair, vector_clock, set_union)),
    ("CausalValue", st.builds(CausalValue, vector_clock, set_union)),
    ("MapLattice[SetUnion]", st.dictionaries(
        st.sampled_from(["x", "y"]), set_union, max_size=2).map(MapLattice)),
]

every_type_triple = st.one_of(
    *[st.tuples(strategy, strategy, strategy)
      for _, strategy in ALL_STRATEGIES + COMPOSITE_STRATEGIES]
)


@given(any_lattice_triple)
@settings(max_examples=300)
def test_merge_is_associative(triple):
    a, b, c = triple
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(any_lattice_triple)
@settings(max_examples=300)
def test_merge_is_commutative(triple):
    a, b, _ = triple
    assert a.merge(b) == b.merge(a)


@given(any_lattice_triple)
@settings(max_examples=300)
def test_merge_is_idempotent(triple):
    a, _, _ = triple
    assert a.merge(a) == a


@given(any_lattice_triple)
@settings(max_examples=300)
def test_merge_is_inflationary(triple):
    a, b, _ = triple
    merged = a.merge(b)
    assert a.leq(merged)
    assert b.leq(merged)


@given(any_lattice_triple)
@settings(max_examples=200)
def test_bottom_is_identity(triple):
    a, _, _ = triple
    bottom = type(a).bottom()
    assert bottom.merge(a) == a
    assert a.merge(bottom) == a


@given(every_type_triple)
@settings(max_examples=300)
def test_fast_leq_agrees_with_merge_order(triple):
    """Every ``leq`` override answers exactly ``a.merge(b) == b``."""
    a, b, _ = triple
    assert a.leq(b) == (a.merge(b) == b)


# -- immutability ------------------------------------------------------------------


@given(every_type_triple)
@settings(max_examples=300)
def test_merge_leaves_both_operands_unchanged(triple):
    a, b, _ = triple
    a_before, b_before = copy.deepcopy(a), copy.deepcopy(b)
    a_hash, b_hash = hash(a), hash(b)
    a.merge(b)
    b.merge(a)
    assert (a, b) == (a_before, b_before)
    assert (hash(a), hash(b)) == (a_hash, b_hash)


@given(every_type_triple)
@settings(max_examples=200)
def test_join_all_is_a_fold_that_mutates_no_input(triple):
    a, b, c = triple
    before = copy.deepcopy(triple)
    assert join_all([a, b, c]) == a.merge(b).merge(c)
    assert triple == before


@given(every_type_triple)
@settings(max_examples=200)
def test_join_all_with_start_leaves_start_unchanged(triple):
    a, b, _ = triple
    start_before = copy.deepcopy(a)
    assert join_all([b], start=a) == a.merge(b)
    assert a == start_before
    assert join_all([], start=a) is a


def test_join_all_of_nothing_is_bottom():
    assert join_all([]) is BOTTOM
    assert join_all([SetUnion({1})]) == SetUnion({1})


@given(st.lists(set_union, min_size=2, max_size=6))
@settings(max_examples=100)
def test_merge_order_does_not_matter(values):
    """Folding in any order yields the same least upper bound (confluence)."""
    forward = values[0]
    for value in values[1:]:
        forward = forward.merge(value)
    backward = values[-1]
    for value in reversed(values[:-1]):
        backward = backward.merge(value)
    assert forward == backward


@given(st.lists(set_union, min_size=3, max_size=8))
@settings(max_examples=100)
def test_monotone_check_accepts_set_size(samples):
    """Cardinality is monotone from (sets, ⊆) to (ints, ≤)."""
    assert is_monotone_on_samples(lambda s: MaxInt(len(s)), samples)


@given(st.lists(gcounter, min_size=3, max_size=8))
@settings(max_examples=100)
def test_monotone_check_rejects_negated_count(samples):
    """Negated count is antitone, so the sampled check must reject it
    whenever the sample contains at least one strictly ordered pair."""
    has_ordered_pair = any(
        a.leq(b) and a != b for a in samples for b in samples
    )
    verdict = is_monotone_on_samples(lambda c: MaxInt(-c.value), samples)
    if has_ordered_pair:
        assert not verdict
    else:
        assert verdict
