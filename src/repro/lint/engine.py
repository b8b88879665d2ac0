"""File discovery, rule execution and report assembly.

The engine mirrors the determinism discipline it enforces.  One run is
one in-process pipeline:

1. discover files in sorted path order;
2. read, parse and suppression-scan each file exactly **once**
   (:meth:`FileContext.build`);
3. run the selected per-file rules over every context, sharing its
   cached AST walk;
4. run the interprocedural pass (:mod:`repro.lint.flow`) over the same
   contexts whenever a DRA5xx rule is selected or a graph is requested;
5. filter codes, apply suppressions, count the ``lint.*`` metrics and
   sort findings by (path, line, col, code) -- once, for both tiers.

The driver sets ``lint.wall_ms`` at the end (a gauge, reported
out-of-band so timing never perturbs report bytes).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.flow.rules5xx import FLOW_RULES
from repro.lint.rules import RULES
from repro.lint.suppress import SUPPRESSION_CODE, apply_suppressions
from repro.obs import metrics as _metrics
from repro.runtime.timing import Stopwatch

__all__ = [
    "LINT_SCHEMA_VERSION",
    "PARSE_ERROR_CODE",
    "LintReport",
    "UnknownSelectorError",
    "lint_paths",
]

#: Version stamp of the ``--format json`` payload.
LINT_SCHEMA_VERSION = 1

#: Code attached to files the parser rejects.
PARSE_ERROR_CODE = "DRA002"

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


class UnknownSelectorError(ValueError):
    """A ``select``/``ignore`` prefix that matches no code in the catalogue."""


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    files: int
    findings: tuple[Finding, ...]
    suppressed: int
    selected: tuple[str, ...] = field(default=())
    #: wall time of the run in milliseconds (reported out-of-band: it is
    #: deliberately NOT part of :meth:`to_payload` nor of report
    #: equality, which must stay identical across runs)
    wall_ms: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_payload(self) -> dict[str, Any]:
        """The schema-versioned ``--format json`` document."""
        return {
            "schema": "repro-lint",
            "v": LINT_SCHEMA_VERSION,
            "files": self.files,
            "suppressed": self.suppressed,
            "counts": self.counts_by_code(),
            "findings": [f.to_dict() for f in self.findings],
            "ok": self.ok,
        }


def _code_matches(code: str, selectors: frozenset[str]) -> bool:
    """Ruff-style prefix matching: DRA1 selects every DRA1xx rule."""
    return any(code.startswith(sel) for sel in selectors)


def iter_python_files(paths: list[str]) -> list[str]:
    """Every ``*.py`` under ``paths``, deduplicated, in sorted order."""
    out: set[str] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_file() and p.suffix == ".py":
            out.add(str(p))
        elif p.is_dir():
            for sub in p.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    out.add(str(sub))
    return sorted(out)


def _parse_error_finding(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        code=PARSE_ERROR_CODE,
        message=f"file does not parse: {exc.msg}",
    )


def _relpath(path: str) -> str:
    return os.path.relpath(path).replace(os.sep, "/")


def _flow_pass(contexts: list[FileContext], graph_out: str | None) -> list[Finding]:
    """The interprocedural findings, writing the call graph if asked.

    Flow findings obey the sink-line suppression policy: a
    ``# dra: noqa[DRA5xx]`` on the reported (sink) line silences the
    finding; comments on the source/definition lines do not.
    """
    from repro.lint.flow import analyze_project

    findings, graph = analyze_project(contexts)
    if graph_out is not None:
        payload = json.dumps(graph.to_payload(), indent=2, sort_keys=False)
        Path(graph_out).write_text(payload + "\n", encoding="utf-8")
    return findings


def _count_metrics(files: int, kept: list[Finding], silenced: int) -> None:
    reg = _metrics.get_registry()
    if reg is None:
        return
    if files:
        reg.counter("lint.files").inc(files)
    if kept:
        reg.counter("lint.findings").inc(len(kept))
        for f in kept:
            reg.counter(f"lint.findings.{f.code}").inc()
    if silenced:
        reg.counter("lint.suppressions").inc(silenced)


def lint_paths(
    paths: list[str],
    *,
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
    graph_out: str | None = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``select``/``ignore`` take rule-code prefixes (``DRA1`` covers all
    of ``DRA1xx``); a prefix matching no code in the catalogue raises
    :class:`UnknownSelectorError`, since it would silently select or
    skip nothing.  The DRA5xx whole-project pass runs when any DRA5xx
    code survives ``select``/``ignore``, or when ``graph_out`` asks for
    the call graph as schema-versioned JSON.
    """
    _check_selectors(select, ignore)
    watch = Stopwatch()
    with watch:
        files = iter_python_files(paths)
        selected = _selected_codes(select, ignore)
        rules = [r for r in RULES.values() if r.code in selected]
        contexts: list[FileContext] = []
        findings: list[Finding] = []
        for abspath in files:
            relpath = _relpath(abspath)
            try:
                ctx = FileContext.build(abspath, relpath)
            except SyntaxError as exc:
                findings.append(_parse_error_finding(relpath, exc))
                continue
            contexts.append(ctx)
            findings.extend(ctx.suppression_findings)
            for r in rules:
                findings.extend(r.check(ctx))
        if graph_out is not None or any(c in FLOW_RULES for c in selected):
            findings.extend(_flow_pass(contexts, graph_out))
        if select is not None:
            findings = [f for f in findings if _code_matches(f.code, select)]
        if ignore is not None:
            findings = [f for f in findings if not _code_matches(f.code, ignore)]
        kept, suppressed = apply_suppressions(
            findings, {ctx.path: ctx.suppressions for ctx in contexts}
        )
        kept.sort()
        _count_metrics(len(files), kept, suppressed)
    reg = _metrics.get_registry()
    if reg is not None:
        reg.gauge("lint.wall_ms").set(watch.elapsed * 1000.0)
    return LintReport(
        files=len(files),
        findings=tuple(kept),
        suppressed=suppressed,
        selected=selected,
        wall_ms=watch.elapsed * 1000.0,
    )


def known_codes() -> frozenset[str]:
    """The catalogue: every rule code plus DRA001 and DRA002."""
    return frozenset((SUPPRESSION_CODE, PARSE_ERROR_CODE, *RULES, *FLOW_RULES))


def _check_selectors(
    select: frozenset[str] | None, ignore: frozenset[str] | None
) -> None:
    catalogue = known_codes()
    for option, selectors in (("select", select), ("ignore", ignore)):
        for sel in sorted(selectors or ()):
            if not any(code.startswith(sel) for code in catalogue):
                raise UnknownSelectorError(
                    f"--{option} {sel} matches no rule code; see "
                    "docs/static-analysis.md for the catalogue"
                )


def _selected_codes(
    select: frozenset[str] | None,
    ignore: frozenset[str] | None,
) -> tuple[str, ...]:
    return tuple(
        sorted(
            code
            for code in (*RULES, *FLOW_RULES)
            if (select is None or _code_matches(code, select))
            and (ignore is None or not _code_matches(code, ignore))
        )
    )
