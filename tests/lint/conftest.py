"""Fixtures for the linter suite: write a snippet, lint it, read codes.

Every rule test materializes its fixture under ``tmp_path`` in the same
layout the real tree uses (``src/repro/<pkg>/...``, ``tests/...``), so
the path-sensitive scoping (sim core, obs scope, test code) is exercised
exactly as in production.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import LintReport, lint_paths


@pytest.fixture
def run_lint(tmp_path):
    """Write ``source`` at ``rel`` under tmp_path and lint just that file."""

    def run(rel: str, source: str, **kwargs) -> LintReport:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_paths([str(path)], **kwargs)

    return run


@pytest.fixture
def lint_codes(run_lint):
    """Like ``run_lint`` but returns just the finding codes, in order."""

    def run(rel: str, source: str, **kwargs) -> list[str]:
        return [f.code for f in run_lint(rel, source, **kwargs).findings]

    return run


@pytest.fixture
def lint_hits(run_lint):
    """Like ``run_lint`` but returns ``(code, line)`` per finding, in order."""

    def run(rel: str, source: str, **kwargs) -> list[tuple[str, int]]:
        return [(f.code, f.line) for f in run_lint(rel, source, **kwargs).findings]

    return run
