"""The rule engine: registry, module parsing, file walking, reporting.

A :class:`Rule` inspects one parsed module (:class:`ModuleContext`) and
yields :class:`~repro.lint.findings.Finding`s.  The engine owns everything
around that: discovering files deterministically (sorted walk, no
``__pycache__``), building the shared AST + parent map once per module,
applying inline suppressions, and folding unused suppressions back in as
``RL000`` findings.  Output order is fully deterministic — sorted by
``(path, line, column, code)`` — so diffs of lint output are meaningful
and CI failures reproduce byte-identically under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.findings import Finding, unused_suppression_finding
from repro.lint.suppressions import SuppressionIndex

#: Directory names never descended into during a walk.
SKIPPED_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
                ".benchmarks", "node_modules"}


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module, parsed once."""

    path: str
    source: str
    tree: ast.Module
    #: child AST node -> parent AST node, for ancestry-sensitive rules.
    parents: dict[ast.AST, ast.AST] = field(repr=False, default_factory=dict)

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        return cls(path=path, source=source, tree=tree, parents=parents)

    @property
    def path_parts(self) -> tuple[str, ...]:
        return Path(self.path).parts

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's parent chain, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None


class Rule:
    """One contract check.  Subclasses set the metadata and implement
    :meth:`check`; :meth:`finding` stamps the rule's identity onto the
    locations it reports."""

    #: Stable rule code, e.g. ``"RL001"`` (what suppressions name).
    code: str = ""
    #: Short kebab-case name, e.g. ``"builtin-hash-routing"``.
    name: str = ""
    #: One-line contract statement shown by ``--list-rules``.
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(path=ctx.path, line=getattr(node, "lineno", 0),
                       column=getattr(node, "col_offset", 0),
                       code=self.code, rule=self.name, message=message)


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to the global registry (one per code)."""
    rule = rule_cls()
    if not rule.code or not rule.name:
        raise ValueError(f"rule {rule_cls.__name__} must set code and name")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, in code order."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


@dataclass
class LintReport:
    """The outcome of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        verdict = ("clean" if self.ok
                   else f"{len(self.findings)} finding(s) "
                        f"{self.counts_by_code()}")
        lines.append(f"repro.lint: {self.files_checked} file(s) checked, {verdict}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": self.counts_by_code(),
            "findings": [finding.to_dict() for finding in self.findings],
        }, indent=2)


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Analyze one module given as text (the fixture-test entry point)."""
    report = LintReport(files_checked=1)
    report.findings.extend(_check_module(source, path, rules or all_rules()))
    report.findings.sort()
    return report


def lint_paths(paths: Sequence, rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Analyze every ``*.py`` under the given files/directories."""
    rules = list(rules) if rules is not None else all_rules()
    report = LintReport()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        report.files_checked += 1
        report.findings.extend(_check_module(source, str(file_path), rules))
    report.findings.sort()
    return report


def iter_python_files(paths: Sequence) -> Iterator[Path]:
    """All ``*.py`` files under ``paths``, deterministically ordered."""
    seen: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates = sorted(
                candidate for candidate in path.rglob("*.py")
                if not SKIPPED_DIRS.intersection(candidate.parts))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _check_module(source: str, path: str, rules: Sequence[Rule]) -> list[Finding]:
    ctx = ModuleContext.parse(source, path)
    suppressions = SuppressionIndex(source)
    findings = []
    for rule in rules:
        for finding in rule.check(ctx):
            if not suppressions.suppress(finding.line, finding.code):
                findings.append(finding)
    findings.extend(
        unused_suppression_finding(path, suppression.line, suppression.code)
        for suppression in suppressions.unused())
    return findings
