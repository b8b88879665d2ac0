"""Gate self-test: the benchmark's correctness checks must be able to fail.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench/test_gate.py

Each test runs the benchmark command with a defect planted through a
public switch and expects a nonzero exit, ``correct: false`` and a
nonzero error rate on the result line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_gate_failed(code: int, result: dict) -> None:
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_perturbed_validation_fails_paper():
    # A 1.5x LPI failure rate breaks the analytic/empirical pairs.
    _assert_gate_failed(*_run("paper", "--perturb", "lam_lpi=1.5"))


def test_wrong_digest_fails_chaos(tmp_path):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    for schedule in expected["chaos"]:
        schedule["summary"] = "0" * 16
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected), encoding="utf-8")
    _assert_gate_failed(*_run("chaos", "--expected", str(path)))
