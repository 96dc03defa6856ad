"""Property-based tests: every lattice satisfies the semilattice laws.

The CALM theorem's guarantees rest entirely on merge being associative,
commutative and idempotent, and on updates being inflationary in the induced
order.  Hypothesis generates arbitrary lattice points per type and checks
the laws hold for all of them.  Lattice values are immutable: ``merge``
leaves every operand as it was, which is what lets state, tick reads and
in-flight messages share one lattice object.  And a value's digest is a
function of the value alone, which is what lets anti-entropy tell equal
replicas from divergent ones.
"""

import copy
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import payload_digest
from repro.lattices import (
    BoolOr,
    GCounter,
    LWWRegister,
    MapLattice,
    MaxInt,
    SetUnion,
    TwoPhaseSet,
    VectorClock,
    is_monotone_on_samples,
)
from repro.storage.antientropy import DigestTree

REPLICAS = ["r1", "r2", "r3"]


# -- strategies ------------------------------------------------------------------

bool_or = st.booleans().map(BoolOr)
max_int = st.integers(min_value=-1000, max_value=1000).map(MaxInt)
set_union = st.frozensets(st.integers(min_value=0, max_value=20), max_size=6).map(SetUnion)
two_phase = st.tuples(
    st.frozensets(st.integers(min_value=0, max_value=10), max_size=5),
    st.frozensets(st.integers(min_value=0, max_value=10), max_size=5),
).map(lambda pair: TwoPhaseSet(pair[0], pair[1]))
gcounter = st.dictionaries(st.sampled_from(REPLICAS), st.integers(0, 50), max_size=3).map(GCounter)
vector_clock = st.dictionaries(st.sampled_from(REPLICAS), st.integers(0, 20), max_size=3).map(VectorClock)
lww = st.tuples(
    st.integers(0, 100), st.integers(-5, 5), st.sampled_from(REPLICAS)
).map(lambda t: LWWRegister(float(t[0]), t[1], t[2]))
map_lattice = st.dictionaries(
    st.sampled_from(["a", "b", "c"]), max_int, max_size=3
).map(MapLattice)

ALL_STRATEGIES = [
    ("BoolOr", bool_or),
    ("MaxInt", max_int),
    ("SetUnion", set_union),
    ("TwoPhaseSet", two_phase),
    ("GCounter", gcounter),
    ("VectorClock", vector_clock),
    ("LWWRegister", lww),
    ("MapLattice", map_lattice),
]

#: A map of sets, nested over the types above; only the ``leq`` and
#: immutability properties below run over it too.
NESTED_STRATEGIES = [
    ("MapLattice[SetUnion]", st.dictionaries(
        st.sampled_from(["x", "y"]), set_union, max_size=2).map(MapLattice)),
]


def per_type(strategies):
    """Run a property once per lattice type, each on its own generated
    triples, so every type gets the full example budget and a failure
    names the type it broke."""
    return pytest.mark.parametrize(
        "triples", [st.tuples(strategy, strategy, strategy)
                    for _, strategy in strategies],
        ids=[name for name, _ in strategies])


each_type = per_type(ALL_STRATEGIES)
each_type_and_nested = per_type(ALL_STRATEGIES + NESTED_STRATEGIES)


@each_type
@given(data=st.data())
@settings(max_examples=100)
def test_merge_is_associative(triples, data):
    a, b, c = data.draw(triples)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@each_type
@given(data=st.data())
@settings(max_examples=100)
def test_merge_is_commutative(triples, data):
    a, b, _ = data.draw(triples)
    assert a.merge(b) == b.merge(a)


@each_type
@given(data=st.data())
@settings(max_examples=100)
def test_merge_is_idempotent(triples, data):
    a, _, _ = data.draw(triples)
    assert a.merge(a) == a


@each_type
@given(data=st.data())
@settings(max_examples=100)
def test_merge_is_inflationary(triples, data):
    a, b, _ = data.draw(triples)
    merged = a.merge(b)
    assert a.leq(merged)
    assert b.leq(merged)


@each_type
@given(data=st.data())
@settings(max_examples=100)
def test_merge_is_the_least_upper_bound(triples, data):
    """``a.merge(b)`` precedes every upper bound of ``a`` and ``b``; each
    upper bound ``u`` equals ``u.merge(a).merge(b)``, so drawing ``c`` and
    joining ``a`` and ``b`` into it reaches all of them."""
    a, b, c = data.draw(triples)
    upper = c.merge(a).merge(b)
    assert a.merge(b).leq(upper)
    assert c.leq(upper)


@each_type
@given(data=st.data())
@settings(max_examples=100)
def test_bottom_is_identity(triples, data):
    a, _, _ = data.draw(triples)
    bottom = type(a).bottom()
    assert bottom.merge(a) == a
    assert a.merge(bottom) == a


@each_type_and_nested
@given(data=st.data())
@settings(max_examples=100)
def test_fast_leq_agrees_with_merge_order(triples, data):
    """Every ``leq`` override answers exactly ``a.merge(b) == b``."""
    a, b, _ = data.draw(triples)
    assert a.leq(b) == (a.merge(b) == b)


# -- immutability ------------------------------------------------------------------


@each_type_and_nested
@given(data=st.data())
@settings(max_examples=100)
def test_merge_leaves_both_operands_unchanged(triples, data):
    a, b, _ = data.draw(triples)
    a_before, b_before = copy.deepcopy(a), copy.deepcopy(b)
    a_hash, b_hash = hash(a), hash(b)
    a.merge(b)
    b.merge(a)
    assert (a, b) == (a_before, b_before)
    assert (hash(a), hash(b)) == (a_hash, b_hash)


@each_type_and_nested
@given(data=st.data())
@settings(max_examples=100)
def test_a_fold_of_merges_mutates_no_input(triples, data):
    triple = data.draw(triples)
    before = copy.deepcopy(triple)
    reduce(lambda acc, value: acc.merge(value), triple)
    assert triple == before


# -- digests -----------------------------------------------------------------------


def entry_tree(value):
    """A one-key ``DigestTree``: equal trees mean equal entry digests."""
    return DigestTree.from_store({"k": value})


def assert_digests_follow_equality(a, b):
    assert (a == b) == (payload_digest(a) == payload_digest(b))
    assert entry_tree(a.merge(b)) == entry_tree(b.merge(a))


@each_type
@given(data=st.data())
@settings(max_examples=100)
def test_equal_values_have_equal_digests(triples, data):
    """Digests hash ``repr``, so ``repr`` must be canonical: two values
    digest alike exactly when they are equal, whatever order their entries
    were inserted in, and both merge orders give one entry digest."""
    assert_digests_follow_equality(*data.draw(triples)[:2])


@pytest.mark.parametrize("a, b", [
    (GCounter({"r1": 1}), GCounter({"r2": 1})),
    (VectorClock({"r1": 1}), VectorClock({"r2": 1})),
    (LWWRegister(5.0, 1, "r1"), LWWRegister(5.0, 1, "r2")),
], ids=["GCounter", "VectorClock", "LWWRegister"])
def test_equal_values_have_equal_digests_where_repr_once_was_not_canonical(a, b):
    """Counters and clocks once printed in insertion order, and registers
    once omitted the tiebreak."""
    assert_digests_follow_equality(a, b)


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
