"""The Dynamo-style shopping cart used in the paper's consistency-placement
discussion (§7.2).

The cart is the canonical "coordination-free except for sealing" workload:
adds and removes during a shopping session are order-insensitive (a
two-phase-set lattice per cart), and the only step that needs care is
*checkout*, which must capture a final, agreed cart.  Two checkout designs
are compared in the E3 experiment:

* ``checkout`` with serializable consistency — the heavyweight baseline that
  coordinates every checkout across replicas; and
* client-side *sealing*: the client ships a manifest summarising the final
  cart, and each replica finalises unilaterally once its local state matches
  the manifest (Conway's trick, systematised by Blazes).  No deployment
  builds it: ``examples/shopping_cart_sealing.py`` runs it beside the
  serializable checkout.
"""

from __future__ import annotations

from repro.core.datamodel import FieldSpec
from repro.core.facets import ConsistencyLevel, ConsistencySpec, Invariant
from repro.core.handlers import EffectKind, EffectSpec
from repro.core.program import HydroProgram
from repro.lattices import BoolOr, SetUnion, TwoPhaseSet


def build_cart_program() -> HydroProgram:
    """Build the shopping cart as a HydroLogic program.

    Cart contents are a :class:`TwoPhaseSet` per session (adds and removes
    both monotone in lattice space); ``checkout`` snapshots the live
    membership into the ``orders`` table.
    """
    program = HydroProgram("shopping_cart")

    program.add_class(
        "Cart",
        fields=[
            FieldSpec("session", int),
            FieldSpec("items", lattice=TwoPhaseSet),
            FieldSpec("sealed", lattice=BoolOr),
        ],
        key="session",
    )
    program.add_table("carts", "Cart")

    program.add_class(
        "Order",
        fields=[
            FieldSpec("session", int),
            FieldSpec("items", lattice=SetUnion),
        ],
        key="session",
    )
    program.add_table("orders", "Order")

    def add_item(ctx, session, item):
        ctx.merge_field("carts", session, "items", TwoPhaseSet(added={item}))
        ctx.respond("OK")

    program.add_handler(
        "add_item",
        add_item,
        params=["session", "item"],
        effects=[EffectSpec(EffectKind.MERGE, "carts")],
        reads=["carts"],
        doc="Add an item to a session's cart (monotone).",
    )

    def remove_item(ctx, session, item):
        ctx.merge_field("carts", session, "items", TwoPhaseSet(removed={item}))
        ctx.respond("OK")

    program.add_handler(
        "remove_item",
        remove_item,
        params=["session", "item"],
        effects=[EffectSpec(EffectKind.MERGE, "carts")],
        reads=["carts"],
        doc="Remove an item (a monotone tombstone in the 2P-set lattice).",
    )

    def cart_contents(view, session):
        row = view.row("carts", session)
        if row is None:
            return frozenset()
        return frozenset(row["items"].live)

    program.add_query("cart_contents", cart_contents, reads=["carts"], monotone=False)

    # The coordinated checkout: marks the cart sealed and copies the final
    # contents into orders.  Serializable because the "final contents" read
    # is a non-monotone observation of the two-phase set.
    def checkout(ctx, session):
        row = ctx.row("carts", session)
        final = frozenset(row["items"].live) if row is not None else frozenset()
        ctx.merge_field("carts", session, "sealed", BoolOr(True))
        ctx.merge_row("orders", session=session, items=SetUnion(final))
        ctx.respond(sorted(final, key=repr))

    program.add_handler(
        "checkout",
        checkout,
        params=["session"],
        effects=[
            EffectSpec(EffectKind.MERGE, "carts"),
            EffectSpec(EffectKind.MERGE, "orders"),
        ],
        reads=["carts", "orders"],
        consistency=ConsistencySpec(ConsistencyLevel.SERIALIZABLE),
        doc="Coordinated checkout: snapshot the final cart into orders.",
    )

    # The sealed checkout: the client supplies the manifest it observed; the
    # replica finalises as soon as its local cart covers the manifest, with
    # no cross-replica coordination (eventual consistency).
    def sealed_checkout(ctx, session, manifest):
        manifest = frozenset(manifest)
        row = ctx.row("carts", session)
        local = frozenset(row["items"].live) if row is not None else frozenset()
        if manifest <= local:
            ctx.merge_field("carts", session, "sealed", BoolOr(True))
            ctx.merge_row("orders", session=session, items=SetUnion(manifest))
            ctx.respond(sorted(manifest, key=repr))
        else:
            ctx.respond(None)  # not yet: replica has not seen the whole manifest

    program.add_handler(
        "sealed_checkout",
        sealed_checkout,
        params=["session", "manifest"],
        effects=[
            EffectSpec(EffectKind.MERGE, "carts"),
            EffectSpec(EffectKind.MERGE, "orders"),
        ],
        reads=["carts", "orders"],
        consistency=ConsistencySpec(ConsistencyLevel.EVENTUAL),
        doc="Client-sealed checkout: coordination-free finalisation against a manifest.",
    )

    def order_of(view, session):
        row = view.row("orders", session)
        if row is None:
            return None
        return frozenset(row["items"].elements)

    program.add_query("order_of", order_of, reads=["orders"], monotone=True)

    program.validate()
    return program
