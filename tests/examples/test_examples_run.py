"""Every example runs, passes its own asserts, and prints the same text
each time it runs: the documented entry points cannot rot."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def run_main(path, capsys):
    runpy.run_path(str(path))["main"]()
    return capsys.readouterr().out


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs_and_prints_the_same_twice(path, capsys):
    first = run_main(path, capsys)
    assert first.strip()
    assert run_main(path, capsys) == first


def test_quickstart_describes_each_query_by_its_monotonicity(capsys):
    out = run_main(EXAMPLES[[path.stem for path in EXAMPLES].index("quickstart")], capsys)
    assert "  query contact_graph [monotone]\n  query transitive [monotone]\n" in out
