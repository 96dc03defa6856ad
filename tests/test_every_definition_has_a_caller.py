"""Every function, class and method under ``src/repro`` has a caller.

A definition counts as called when its name occurs as a whole word in some
``.py`` file under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
outside the definition itself and outside package ``__init__.py`` files (a
re-export is not a use).  Dunders are called by the interpreter and
``@register``-decorated lint rules by the engine, so both are exempt.  A
word match is a floor, not a proof: a name that shares its spelling with
another, or occurs only in a comment, still passes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definition_spans() -> dict[str, list[tuple[Path, int, int]]]:
    """Each checked name -> the (file, first line, last line) of its definitions."""
    spans: dict[str, list[tuple[Path, int, int]]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, DEFINITIONS)
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and not any(getattr(d, "id", None) == "register"
                                for d in node.decorator_list)):
                spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
    return spans


def test_every_src_definition_has_a_caller():
    spans = definition_spans()
    called = set()
    for path in (path for tree in TREES for path in (ROOT / tree).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in spans.keys() & set(re.findall(r"\w+", line)):
                if not any(path == where and first <= lineno <= last
                           for where, first, last in spans[name]):
                    called.add(name)
    assert sorted(spans.keys() - called) == []
