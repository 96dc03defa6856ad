"""A collaborative editing service in the monotone style of §1.2.

The paper cites collaborative editing (Logoot) as a flagship monotone design
pattern: concurrent edits commute because each character insertion carries a
globally unique, totally ordered position identifier, and deletion is a
tombstone.  The document state is therefore a grow-only set of operations —
a lattice — and rendering the document is a deterministic function of that
set, so replicas converge without coordination.
"""

from __future__ import annotations

from repro.core.datamodel import FieldSpec
from repro.core.handlers import EffectKind, EffectSpec
from repro.core.program import HydroProgram
from repro.lattices import SetUnion


def build_collab_program() -> HydroProgram:
    """Build the collaborative editor as a HydroLogic program."""
    program = HydroProgram("collab_edit")

    program.add_class(
        "Document",
        fields=[
            FieldSpec("doc_id", int),
            FieldSpec("inserts", lattice=SetUnion),   # {(position, author, char)}
            FieldSpec("tombstones", lattice=SetUnion),  # {position}
        ],
        key="doc_id",
    )
    program.add_table("documents", "Document")

    def insert(ctx, doc_id, position, author, char):
        ctx.merge_field(
            "documents", doc_id, "inserts", SetUnion({(tuple(position), author, char)})
        )
        ctx.respond("OK")

    program.add_handler(
        "insert",
        insert,
        params=["doc_id", "position", "author", "char"],
        effects=[EffectSpec(EffectKind.MERGE, "documents")],
        reads=["documents"],
        doc="Insert a character at a dense position (monotone).",
    )

    def delete(ctx, doc_id, position):
        ctx.merge_field("documents", doc_id, "tombstones", SetUnion({tuple(position)}))
        ctx.respond("OK")

    program.add_handler(
        "delete",
        delete,
        params=["doc_id", "position"],
        effects=[EffectSpec(EffectKind.MERGE, "documents")],
        reads=["documents"],
        doc="Tombstone a position (monotone: deletion is an add to the tombstone set).",
    )

    def render(view, doc_id):
        """Render the document text: visible inserts ordered by position."""
        row = view.row("documents", doc_id)
        if row is None:
            return ""
        tombstones = set(row["tombstones"].elements)
        visible = [
            (position, char)
            for (position, author, char) in row["inserts"].elements
            if position not in tombstones
        ]
        return "".join(char for _, char in sorted(visible, key=lambda item: (item[0], item[1])))

    program.add_query("render", render, reads=["documents"], monotone=False)

    def read_document(ctx, doc_id):
        ctx.respond(ctx.query("render", doc_id))

    program.add_handler(
        "read_document",
        read_document,
        params=["doc_id"],
        effects=[],
        reads=["documents"],
        queries=["render"],
        doc="Return the rendered text of a document (read-only).",
    )

    program.validate()
    return program
