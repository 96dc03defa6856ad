"""Unit tests for primitive scalar lattices."""

from repro.lattices import BOTTOM, BoolOr, MaxInt


class TestBoolOr:
    def test_bottom_is_false(self):
        assert BoolOr.bottom().value is False

    def test_merge_is_or(self):
        assert BoolOr(True).merge(BoolOr(False)).value is True
        assert BoolOr(False).merge(BoolOr(False)).value is False

    def test_true_dominates_false(self):
        assert BoolOr(False).leq(BoolOr(True))
        assert not BoolOr(True).leq(BoolOr(False))

    def test_truthiness(self):
        assert bool(BoolOr(True))
        assert not bool(BoolOr(False))

    def test_or_operator_sugar(self):
        assert (BoolOr(False) | BoolOr(True)) == BoolOr(True)


class TestMaxInt:
    def test_bottom_is_negative_infinity(self):
        assert MaxInt.bottom().value == float("-inf")

    def test_merge_keeps_max(self):
        assert MaxInt(3).merge(MaxInt(7)) == MaxInt(7)
        assert MaxInt(7).merge(MaxInt(3)) == MaxInt(7)

    def test_order(self):
        assert MaxInt(3) <= MaxInt(7)
        assert MaxInt(7) >= MaxInt(3)
        assert MaxInt(3) < MaxInt(7)

    def test_accepts_floats(self):
        assert MaxInt(1.5).merge(MaxInt(2)).value == 2

    def test_int_conversion(self):
        assert int(MaxInt(42)) == 42


class TestBottom:
    def test_polymorphic_bottom_merges_to_other(self):
        assert BOTTOM.merge(MaxInt(5)) == MaxInt(5)

    def test_bottom_equals_typed_bottoms(self):
        assert BOTTOM == MaxInt.bottom()
        assert BOTTOM == BoolOr.bottom()

    def test_comparison_across_types_not_supported(self):
        assert MaxInt(1).__le__(BoolOr(True)) is NotImplemented
