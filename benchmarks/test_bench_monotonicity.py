"""E9 — monotonicity typechecking (§8.2) and its use by the compiler.

Regenerates two facts: (a) the analysis classifies a labelled handler corpus
with perfect precision/recall (the paper's motivation: manual monotonicity
reasoning is error-prone, Figure 4), and (b) the compiler elides
coordination exactly for the handlers the analysis proves monotone, and the
analysis itself is fast enough to run on every compile.
"""

import pytest

from conftest import print_rows
from repro.apps.covid import build_covid_program
from repro.apps.shopping_cart import build_cart_program
from repro.apps.collab_edit import build_collab_program
from repro.consistency import CoordinationMechanism
from repro.core import (
    EffectKind,
    EffectSpec,
    HydroProgram,
    analyze_program,
)
from repro.core.datamodel import FieldSpec
from repro.lattices import GCounter, SetUnion


def labelled_corpus():
    """A corpus of handlers with ground-truth monotonicity labels."""
    program = HydroProgram("corpus")
    program.add_class("Row", fields=[FieldSpec("k", int), FieldSpec("vals", lattice=SetUnion)], key="k")
    program.add_table("rows", "Row")
    program.add_var("counter", lattice=GCounter)
    program.add_var("cell", initial=None)
    program.add_query("all_rows", lambda v: v.rows("rows"), reads=["rows"], monotone=True)
    program.add_query("parity", lambda v: v.count("rows") % 2, reads=["rows"], monotone=False)

    labels = {}

    def add(name, effects, queries=(), label=True):
        program.add_handler(name, lambda ctx, **kwargs: None, effects=effects,
                            reads=["rows"], queries=queries)
        labels[name] = label

    add("merge_row_set", [EffectSpec(EffectKind.MERGE, "rows")], label=True)
    add("merge_counter", [EffectSpec(EffectKind.MERGE, "counter")], label=True)
    add("read_only", [], label=True)
    add("reads_monotone_query", [], queries=["all_rows"], label=True)
    add("assign_cell", [EffectSpec(EffectKind.ASSIGN, "cell")], label=False)
    add("delete_row", [EffectSpec(EffectKind.DELETE, "rows")], label=False)
    add("merge_then_delete", [EffectSpec(EffectKind.MERGE, "rows"),
                              EffectSpec(EffectKind.DELETE, "rows")], label=False)
    add("reads_parity", [], queries=["parity"], label=False)
    add("assign_and_merge", [EffectSpec(EffectKind.ASSIGN, "cell"),
                             EffectSpec(EffectKind.MERGE, "rows")], label=False)
    add("merge_into_plain_cell", [EffectSpec(EffectKind.MERGE, "cell")], label=False)
    return program, labels


def test_classification_accuracy(benchmark):
    program, labels = labelled_corpus()
    report = benchmark(analyze_program, program)
    rows = []
    correct = 0
    for handler, expected_monotone in labels.items():
        verdict = report.handlers[handler].is_monotone
        correct += verdict == expected_monotone
        rows.append([handler, "monotone" if expected_monotone else "non-monotone",
                     "monotone" if verdict else "non-monotone", verdict == expected_monotone])
    print_rows("E9: monotonicity classification on the labelled corpus",
               ["handler", "ground truth", "analysis verdict", "correct"], rows)
    assert correct == len(labels)


def test_coordination_elision_matches_analysis(benchmark):
    def run():
        results = {}
        for builder in (build_covid_program, build_cart_program, build_collab_program):
            program = builder()
            results[program.name] = analyze_program(program)
        return results

    results = benchmark(run)
    rows = []
    for name, report in results.items():
        analyses = report.handlers
        free = sum(1 for analysis in analyses.values() if analysis.coordination_free)
        coordinated = len(analyses) - free
        rows.append([name, len(analyses), free, coordinated])
        for analysis in analyses.values():
            if analysis.coordination_free:
                assert analysis.mechanism is CoordinationMechanism.NONE
            else:
                assert analysis.mechanism is CoordinationMechanism.CONSENSUS_LOG
    print_rows("E9: coordination elision per application",
               ["application", "handlers", "coordination-free", "coordinated"], rows)
