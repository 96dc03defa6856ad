"""Tests for the sealed-cart example (E3): a replica's seal, and sealing
against a serializable checkout on carts of growing size."""

import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
E3 = SimpleNamespace(**runpy.run_path(str(ROOT / "examples" / "shopping_cart_sealing.py")))
SIZES = [10, 50, 200]


class TestSeal:
    def test_manifest_satisfaction_is_upward_closed(self):
        """Once observed ⊇ manifest holds, more items keep it holding and
        the final stays the manifest."""
        seal = E3.Seal({"a", "b"})
        assert seal.observe({"a", "b"})
        for more in ({"c"}, {"a"}, {"d", "e"}):
            assert not seal.observe(more)
            assert seal.final == frozenset({"a", "b"})

    def test_seal_fires_exactly_once(self):
        seal = E3.Seal({"a"})
        fired = [seal.observe({"a"}) for _ in range(5)]
        assert fired == [True, False, False, False, False]

    def test_observations_before_the_manifest_is_covered_count(self):
        seal = E3.Seal({"a", "b", "c"})
        assert not seal.observe({"a"})
        assert not seal.observe({"b"})
        assert seal.final is None
        assert seal.observe({"c"})
        assert seal.final == frozenset({"a", "b", "c"})

    def test_the_final_is_the_manifest_not_everything_observed(self):
        seal = E3.Seal({"a"})
        assert seal.observe({"a", "extra"})
        assert seal.final == frozenset({"a"})

    def test_an_empty_manifest_seals_on_the_first_observation(self):
        seal = E3.Seal(())
        assert seal.observe(())
        assert seal.final == frozenset()

    def test_seals_on_different_manifests_do_not_interfere(self):
        small, large = E3.Seal({"a"}), E3.Seal({"a", "b"})
        assert [(small.observe(items), large.observe(items)) for items in ({"a"}, {"b"})] == [
            (True, False), (False, True)]
        assert (small.final, large.final) == (frozenset({"a"}), frozenset({"a", "b"}))

    def test_replicas_seal_to_identical_values_regardless_of_order(self):
        ops, manifest = E3.cart_operations(12)
        finals = E3.sealed_finals(E3.three_orders(ops), manifest)
        assert len(finals) == 3
        assert set(finals) == {manifest}

    def test_a_manifest_the_cart_never_covers_never_seals(self):
        ops, manifest = E3.cart_operations(4)
        with pytest.raises(AssertionError, match="a seal fires once"):
            E3.sealed_finals([ops], manifest | {"never-added"})


class TestCartRuns:
    def test_cart_operations_remove_every_fourth_items_predecessor(self):
        ops, manifest = E3.cart_operations(8)
        assert [op for op in ops if op[0] == "remove_item"] == [
            ("remove_item", {"session": 1, "item": "item-2"}),
            ("remove_item", {"session": 1, "item": "item-6"}),
        ]
        assert manifest == frozenset(f"item-{i}" for i in (0, 1, 3, 4, 5, 7))

    def test_three_orders_replay_the_same_operations(self):
        ops = list(range(7))
        orders = E3.three_orders(ops)
        assert orders[0] == ops and orders[1] == ops[::-1]
        assert all(sorted(order) == ops for order in orders)

    @pytest.mark.parametrize("items", SIZES)
    def test_every_sealed_final_equals_the_manifest(self, items):
        ops, manifest = E3.cart_operations(items)
        assert set(E3.sealed_finals(E3.three_orders(ops), manifest)) == {manifest}

    @pytest.mark.parametrize("items", SIZES)
    def test_serializable_checkout_agrees_but_coordinates(self, items):
        """Every replica's checkout equals the manifest, and the consensus
        log sends messages where sealing sends none."""
        ops, manifest = E3.cart_operations(items)
        finals, messages = E3.serializable_checkout(ops)
        assert len(finals) == 3
        assert set(finals) == {manifest}
        assert messages > 0


def test_main_prints_one_sealed_cart_per_replica(capsys):
    E3.main()
    out = capsys.readouterr().out
    for index in range(3):
        assert f"  replica-{index}: ['apples', 'cheese', 'dates']" in out
    assert "serializable final cart (all replicas): ['apples', 'cheese', 'dates']" in out
