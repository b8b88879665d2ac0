"""Suppression syntax: waivers need exact codes and a written reason."""

from __future__ import annotations

from repro.lint import SUPPRESSION_CODE, scan_suppressions

BAD = "import random\n"


class TestInlineSuppression:
    def test_valid_suppression_silences_and_counts(self, run_lint):
        report = run_lint(
            "src/repro/sim/x.py",
            "import random  # dra: noqa[DRA101] reason=fixture exercises the legacy API\n",
        )
        assert report.ok
        assert report.suppressed == 1

    def test_missing_reason_is_its_own_finding(self, run_lint):
        report = run_lint(
            "src/repro/sim/x.py", "import random  # dra: noqa[DRA101]\n"
        )
        codes = [f.code for f in report.findings]
        # the malformed waiver silences nothing, so the original finding
        # survives alongside the DRA001
        assert sorted(codes) == [SUPPRESSION_CODE, "DRA101"]
        assert report.suppressed == 0

    def test_empty_reason_is_malformed(self, run_lint):
        report = run_lint(
            "src/repro/sim/x.py", "import random  # dra: noqa[DRA101] reason=\n"
        )
        assert SUPPRESSION_CODE in [f.code for f in report.findings]

    def test_wrong_code_does_not_silence(self, run_lint):
        report = run_lint(
            "src/repro/sim/x.py",
            "import random  # dra: noqa[DRA102] reason=names the wrong rule\n",
        )
        assert [f.code for f in report.findings] == ["DRA101"]
        assert report.suppressed == 0

    def test_unknown_code_is_its_own_finding(self, run_lint):
        report = run_lint(
            "src/repro/sim/x.py", "x = 1  # dra: noqa[DRA999] reason=no such rule\n"
        )
        assert [f.code for f in report.findings] == [SUPPRESSION_CODE]
        assert "DRA999" in report.findings[0].message

    def test_retired_code_waiver_silences_nothing(self, run_lint):
        # a waiver cannot outlive the rule it names: one stale code
        # voids the whole waiver, so the real finding survives too
        report = run_lint(
            "src/repro/sim/x.py",
            "import random  # dra: noqa[DRA101,DRA201] reason=names a retired rule\n",
        )
        assert sorted(f.code for f in report.findings) == [SUPPRESSION_CODE, "DRA101"]
        assert report.suppressed == 0

    def test_multi_code_waiver(self, run_lint):
        report = run_lint(
            "src/repro/sim/x.py",
            "import random, time  # dra: noqa[DRA101,DRA102] reason=fixture needs both legacy APIs\n",
        )
        assert report.ok
        # one waiver, two findings silenced (the RNG and the clock import)
        assert report.suppressed == 2

    def test_suppression_applies_to_its_line_only(self, run_lint):
        report = run_lint(
            "src/repro/sim/x.py",
            "import time  # dra: noqa[DRA102] reason=scoped to this line\n"
            "import random\n",
        )
        assert [f.code for f in report.findings] == ["DRA101"]


class TestScanSuppressions:
    def test_docstring_mentions_are_not_waivers(self):
        source = '"""Docs show the syntax: # dra: noqa[DRA101] reason=x."""\n'
        table, findings = scan_suppressions("x.py", source)
        assert table == {} and findings == []

    def test_well_formed_comment_parsed(self):
        source = "x = 1  # dra: noqa[DRA101, DRA301] reason=because physics\n"
        table, findings = scan_suppressions("x.py", source)
        assert findings == []
        assert table[1].codes == frozenset({"DRA101", "DRA301"})
        assert table[1].reason == "because physics"

    def test_malformed_comment_located(self):
        table, findings = scan_suppressions("x.py", "x = 1  # dra: noqa\n")
        assert table == {}
        assert len(findings) == 1
        assert findings[0].code == SUPPRESSION_CODE
        assert findings[0].line == 1
