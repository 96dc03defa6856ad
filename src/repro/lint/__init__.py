"""repro.lint: an AST-based determinism & contract analyzer for this tree.

Five PRs of infrastructure accumulated a set of *prose* contracts —
"never route by builtin ``hash()``", "never call ``Network.send`` from
protocol code", "never iterate a set into the event schedule" — each
enforced only by documentation and a handful of spot tests.  This package turns them into machine-checked
rules: a static pass that names the offending ``file:line`` *before* a
25-seed chaos sweep ever runs, in the spirit of shifting from "something
broke" to "which component broke".

Usage::

    PYTHONPATH=src python -m repro.lint src/ tests/ benchmarks/
    PYTHONPATH=src python -m repro.lint --format json
    PYTHONPATH=src python -m repro.lint --list-rules

A finding can be suppressed on its exact line with a justification::

    risky_call()  # repro-lint: disable=RL001 -- why this one is safe

Suppressions are themselves checked: one that never fires is reported as
``RL000 unused-suppression`` and fails the run, so stale escape hatches
cannot accumulate.  See :mod:`repro.lint.rules` for the rule suite and
the README "Static analysis & sanitizers" section for the rule table.
"""

from repro.lint.engine import (
    LintReport,
    ModuleContext,
    Rule,
    all_rules,
    iter_python_files,
    lint_paths,
    lint_source,
    register,
)
from repro.lint.findings import UNUSED_SUPPRESSION_CODE, Finding
from repro.lint.suppressions import Suppression, SuppressionIndex

# Importing the rule suite registers every rule with the engine.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LintReport",
    "ModuleContext",
    "Rule",
    "Suppression",
    "SuppressionIndex",
    "UNUSED_SUPPRESSION_CODE",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
]
