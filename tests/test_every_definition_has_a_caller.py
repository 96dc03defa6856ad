"""Every function, class and method under ``src/repro`` has a caller.

A definition counts as called when its name occurs as a whole word in some
``.py`` file under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
outside the definition itself and outside package ``__init__.py`` files (a
re-export is not a use).  Dunders are called by the interpreter and
``@register``-decorated lint rules by the engine, so both are exempt.  A
word match is a floor, not a proof: a name that shares its spelling with
another, or occurs only in a comment, still passes.

A lattice type must also be used by something other than the lattice
package and its own tests: every ``Lattice`` subclass under
``src/repro/lattices/`` is named in some ``.py`` file outside both.  And
every ``Node`` subclass under ``src/repro/availability/`` is named by some
``src/`` file outside that package: an availability mechanism stays only
while the deployment code builds it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
LATTICES = ROOT / "src" / "repro" / "lattices"
AVAILABILITY = ROOT / "src" / "repro" / "availability"


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


def unused_subclasses(package: Path, base: str, own_tests: Path,
                      trees: tuple[str, ...] = TREES) -> list[str]:
    """Direct subclasses of ``base`` defined in ``package`` that no ``.py``
    file under ``trees`` outside ``package`` and ``own_tests`` names."""
    subclasses = {
        node.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(getattr(b, "id", None) == base for b in node.bases)}
    assert subclasses, f"no {base} subclass found: is {package} stale?"
    used = set()
    for path in (path for tree in trees for path in (ROOT / tree).rglob("*.py")):
        if path.name != "__init__.py" and not any(
                path.is_relative_to(directory) for directory in (package, own_tests)):
            used.update(re.findall(r"\w+", path.read_text()))
    return sorted(subclasses - used)


def test_every_lattice_type_has_a_user_outside_the_lattice_package():
    assert unused_subclasses(LATTICES, "Lattice", ROOT / "tests" / "lattices") == []


def test_every_availability_node_is_built_outside_the_availability_package():
    assert unused_subclasses(AVAILABILITY, "Node", ROOT / "tests" / "availability",
                             trees=("src",)) == []
