"""Engine behaviour: suppressions, report formats, file walking, the CLI.

All suppression directives in this file live inside fixture *strings* —
never as real comments — because the meta-test at the bottom lints this
very file, and a real directive that suppresses nothing would (correctly)
come back as an RL000 finding.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    UNUSED_SUPPRESSION_CODE,
    lint_paths,
    lint_source,
)
from repro.lint.cli import main
from repro.lint.engine import iter_python_files
from repro.lint.suppressions import SuppressionIndex

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = textwrap.dedent("""\
    def route(nodes, key):
        return nodes[hash(key) % len(nodes)]
    """)

CLEAN = textwrap.dedent("""\
    def route(nodes, key, digest):
        return nodes[digest(key) % len(nodes)]
    """)


class TestSuppressions:
    def test_directive_on_the_finding_line_silences_it(self):
        source = VIOLATION.replace(
            "% len(nodes)]",
            "% len(nodes)]  # repro-lint: disable=RL001 -- test pin")
        report = lint_source(source, path="src/repro/example.py")
        assert report.findings == []
        assert report.ok

    def test_directive_on_another_line_does_not_suppress(self):
        source = ("# repro-lint: disable=RL001 -- wrong line\n" + VIOLATION)
        report = lint_source(source, path="src/repro/example.py")
        codes = [finding.code for finding in report.findings]
        # The finding survives AND the directive is reported unused.
        assert "RL001" in codes
        assert UNUSED_SUPPRESSION_CODE in codes

    def test_unused_directive_is_an_rl000_finding_at_its_line(self):
        source = CLEAN.replace(
            "% len(nodes)]",
            "% len(nodes)]  # repro-lint: disable=RL001 -- stale")
        report = lint_source(source, path="src/repro/example.py")
        assert [(finding.code, finding.line) for finding in report.findings] \
            == [(UNUSED_SUPPRESSION_CODE, 2)]
        assert "RL001" in report.findings[0].message

    def test_multi_code_directive_tracks_each_code_separately(self):
        source = VIOLATION.replace(
            "% len(nodes)]",
            "% len(nodes)]  # repro-lint: disable=RL001,RL007 -- two codes")
        report = lint_source(source, path="src/repro/example.py")
        # RL001 is consumed; the RL007 half suppressed nothing.
        assert [finding.code for finding in report.findings] \
            == [UNUSED_SUPPRESSION_CODE]

    def test_reason_text_is_parsed(self):
        index = SuppressionIndex(
            "x = 1  # repro-lint: disable=RL001 -- seeded Random only\n")
        (suppression,) = sum(index._by_line.values(), [])
        assert suppression.code == "RL001"
        assert suppression.reason == "seeded Random only"

    def test_directive_inside_a_string_literal_is_ignored(self):
        index = SuppressionIndex(
            'note = "# repro-lint: disable=RL001 -- not a comment"\n')
        assert len(index) == 0


class TestReportFormats:
    def test_json_schema(self):
        report = lint_source(VIOLATION, path="src/repro/example.py")
        payload = json.loads(report.to_json())
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"RL001": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "column", "code", "rule",
                                "message"}
        assert finding["path"] == "src/repro/example.py"
        assert finding["line"] == 2
        assert finding["code"] == "RL001"

    def test_text_format_renders_path_line_and_code(self):
        report = lint_source(VIOLATION, path="src/repro/example.py")
        text = report.to_text()
        assert "src/repro/example.py:2:" in text
        assert "RL001" in text
        assert text.endswith("1 finding(s) {'RL001': 1}")

    def test_clean_report(self):
        report = lint_source(CLEAN, path="src/repro/example.py")
        assert report.ok
        assert json.loads(report.to_json())["ok"] is True
        assert report.to_text() == "repro.lint: 1 file(s) checked, clean"

    def test_findings_sort_deterministically(self):
        source = textwrap.dedent("""\
            def f(acc={}, items=[]):
                return items[hash(acc)]
            """)
        report = lint_source(source, path="src/repro/example.py")
        keys = [(finding.path, finding.line, finding.column, finding.code)
                for finding in report.findings]
        assert keys == sorted(keys)
        assert [finding.code for finding in report.findings] \
            == ["RL007", "RL007", "RL001"]


class TestFileWalking:
    def test_walk_is_sorted_and_skips_caches(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "a.cpython-311.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        names = [path.name for path in iter_python_files([tmp_path])]
        assert names == ["a.py", "b.py"]

    def test_explicit_file_and_containing_dir_deduplicate(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        names = [path.name for path in iter_python_files([target, tmp_path])]
        assert names == ["a.py"]


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2:" in out
        assert "RL001" in out

    def test_json_format_is_parseable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATION)
        assert main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"] == {"RL001": 1}

    def test_unused_suppression_fails_the_run(self, tmp_path, capsys):
        (tmp_path / "stale.py").write_text(CLEAN.replace(
            "% len(nodes)]",
            "% len(nodes)]  # repro-lint: disable=RL001 -- stale"))
        assert main([str(tmp_path)]) == 1
        assert UNUSED_SUPPRESSION_CODE in capsys.readouterr().out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert main([str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules_prints_the_table(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        codes = [line.split()[0] for line in out.splitlines()
                 if line.startswith("RL")]
        # Two codes are gone for good: one folded into RL002, one retired.
        assert codes == ["RL001", "RL002", "RL004", "RL006", "RL007"]


class TestMetaRealTree:
    """The shipped tree must lint clean — the PR's zero-findings baseline."""

    @pytest.mark.parametrize("subtree", ["src", "tests", "benchmarks"])
    def test_real_tree_is_clean(self, subtree):
        report = lint_paths([REPO_ROOT / subtree])
        assert report.files_checked > 0
        assert report.findings == [], "\n" + report.to_text()
