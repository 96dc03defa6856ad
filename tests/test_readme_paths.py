"""README names only paths that exist.

Every ``src/…``, ``tests/…``, ``benchmarks/…`` or ``examples/…`` path the
README mentions must resolve from the repository root, and every
package-relative ``pkg/module.py`` it names in backticks must resolve under
``src/repro/``.  A path under a directory ``.gitignore`` lists (a run output
such as ``benchmarks/e2e/out/``) is written by running something, so it is
exempt.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")

#: A root-relative path: one of the four trees, then path characters.
ROOTED = re.compile(rf"(?<![\w./-])((?:{'|'.join(TREES)})/[\w./-]*)")
#: A package-relative module in backticks, e.g. ``cluster/network.py``.
PACKAGED = re.compile(r"`(\w+(?:/\w+)*/\w+\.py)`")


def ignored_prefixes() -> list[str]:
    """The anchored directories ``.gitignore`` lists, e.g. ``benchmarks/out/``."""
    lines = (ROOT / ".gitignore").read_text().splitlines()
    return [line.strip() for line in lines if "/" in line.strip().rstrip("/")]


def missing_paths(text: str) -> list[str]:
    """Every path ``text`` names that does not exist, sorted."""
    ignored = ignored_prefixes()
    named = {match.group(1).rstrip(".") for match in ROOTED.finditer(text)}
    missing = {path for path in named
               if not path.startswith(tuple(ignored))
               and not (ROOT / path).exists()}
    for match in PACKAGED.finditer(text):
        module = match.group(1)
        if (module.split("/")[0] not in TREES
                and not (ROOT / "src" / "repro" / module).exists()):
            missing.add(module)
    return sorted(missing)


def test_every_path_readme_names_exists():
    assert missing_paths((ROOT / "README.md").read_text()) == []


def test_a_missing_path_is_caught():
    text = ("See `src/repro/nowhere.py`, `cluster/nowhere.py` and "
            "tests/nowhere/.  Not `cluster/network.py`, src/repro/cluster, "
            "`benchmarks/e2e/out/result.json` or `run.py`.")
    assert missing_paths(text) == [
        "cluster/nowhere.py", "src/repro/nowhere.py", "tests/nowhere/"]
