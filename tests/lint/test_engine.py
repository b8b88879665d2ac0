"""Engine behaviour: selection, determinism, metrics and the CLI gate."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import UnknownSelectorError, lint_paths
from repro.obs.metrics import MetricsRegistry, collecting

MIXED = """
    import random
    STAMP = __import__
"""

VIOLATIONS = {
    "src/repro/sim/bad_rng.py": "import random\n",
    "src/repro/analysis/bad_clock.py": "import time\nT0 = time.time()\n",
    "tests/test_bad_tol.py": "def test_x(a, b):\n    assert abs(a - b) < 1e-9\n",
}


def _write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


class TestSelection:
    def test_select_prefix_narrows_rules(self, tmp_path):
        _write_tree(tmp_path, VIOLATIONS)
        report = lint_paths([str(tmp_path)], select=frozenset({"DRA3"}))
        assert [f.code for f in report.findings] == ["DRA301"]
        assert report.selected == ("DRA301",)

    def test_ignore_prefix_drops_rules(self, tmp_path):
        _write_tree(tmp_path, VIOLATIONS)
        report = lint_paths([str(tmp_path)], ignore=frozenset({"DRA1"}))
        assert [f.code for f in report.findings] == ["DRA301"]
        assert "DRA101" not in report.selected

    def test_exact_code_selection(self, tmp_path):
        _write_tree(tmp_path, VIOLATIONS)
        report = lint_paths([str(tmp_path)], select=frozenset({"DRA102"}))
        assert [f.code for f in report.findings] == ["DRA102"]

    @pytest.mark.parametrize("option", ["select", "ignore"])
    def test_prefix_matching_no_rule_rejected(self, tmp_path, option):
        # DRA103 was folded into DRA503: selecting it must not quietly
        # run zero rules
        _write_tree(tmp_path, VIOLATIONS)
        with pytest.raises(UnknownSelectorError, match=f"--{option} DRA103"):
            lint_paths([str(tmp_path)], **{option: frozenset({"DRA1", "DRA103"})})

    def test_catalogue_prefixes_accepted(self, tmp_path):
        _write_tree(tmp_path, VIOLATIONS)
        for sel in ("DRA1", "DRA0", "DRA001", "DRA002", "DRA"):
            lint_paths([str(tmp_path)], select=frozenset({sel}))


class TestDeterminism:
    def test_findings_sorted_by_path_line_col(self, tmp_path):
        _write_tree(tmp_path, VIOLATIONS)
        report = lint_paths([str(tmp_path)])
        keys = [(f.path, f.line, f.col, f.code) for f in report.findings]
        assert keys == sorted(keys)

    def test_report_bytes_identical_across_runs(self, tmp_path):
        _write_tree(tmp_path, VIOLATIONS)
        first = lint_paths([str(tmp_path)])
        second = lint_paths([str(tmp_path)])
        assert first == second
        assert json.dumps(first.to_payload()) == json.dumps(second.to_payload())


class TestMetrics:
    def test_lint_counters_flow_to_registry(self, tmp_path):
        _write_tree(tmp_path, VIOLATIONS)
        with collecting(MetricsRegistry()) as reg:
            report = lint_paths([str(tmp_path)])
        metrics = reg.snapshot()["metrics"]
        assert metrics["lint.files"]["value"] == report.files == 3
        assert metrics["lint.findings"]["value"] == len(report.findings) == 3
        assert metrics["lint.findings.DRA101"]["value"] == 1
        assert metrics["lint.findings.DRA102"]["value"] == 1


class TestCliGate:
    def test_injected_violation_exits_nonzero(self, tmp_path, capsys):
        # the pinned gate contract: a fresh DRA101 violation anywhere in
        # the scanned tree must fail `repro-dra lint`
        _write_tree(
            tmp_path, {"src/repro/sim/injected.py": "import random\n"}
        )
        assert main(["lint", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "DRA101" in captured.out
        assert "FAIL" in captured.err

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write_tree(
            tmp_path,
            {"src/repro/sim/fine.py": "def double(x):\n    return 2 * x\n"},
        )
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format_payload(self, tmp_path, capsys):
        _write_tree(tmp_path, VIOLATIONS)
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-lint"
        assert payload["v"] == 1
        assert payload["ok"] is False
        assert payload["counts"] == {"DRA101": 1, "DRA102": 1, "DRA301": 1}
        assert all(
            {"path", "line", "col", "code", "message"} <= set(f)
            for f in payload["findings"]
        )

    def test_cli_select_and_ignore(self, tmp_path, capsys):
        _write_tree(tmp_path, VIOLATIONS)
        assert main(["lint", str(tmp_path), "--select", "DRA3"]) == 1
        out = capsys.readouterr().out
        assert "DRA301" in out and "DRA101" not in out
        assert (
            main(["lint", str(tmp_path), "--ignore", "DRA1,DRA3"]) == 0
        )

    def test_cli_unknown_selector_is_a_usage_error(self, tmp_path, capsys):
        _write_tree(tmp_path, VIOLATIONS)
        assert main(["lint", str(tmp_path), "--select", "DRA103"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro lint: error: --select DRA103 matches no rule code; "
            "see docs/static-analysis.md for the catalogue"
        ]

    def test_jobs_option_is_gone(self, tmp_path, capsys):
        # lint is one in-process pipeline; --jobs is an argparse error
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(tmp_path), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_repo_tree_is_clean(self, capsys):
        # the merged tree must satisfy its own gate (acceptance criterion)
        assert main(["lint", "src", "tests", "benchmarks", "examples"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
