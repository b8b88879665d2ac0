"""File discovery, rule execution and the parallel driver.

The engine mirrors the determinism discipline it enforces:

* files are discovered in sorted path order and assigned to ``--jobs``
  chunks by **sorted round-robin** (``files[i::jobs]``), so the chunk
  layout is a pure function of the file list -- not of partition
  arithmetic that shifts when ``len(files) < jobs``;
* each file is read, parsed and suppression-scanned exactly **once per
  process** (:meth:`FileContext.build`), and every rule shares the
  cached AST walk / parent map on that context;
* the interprocedural pass (:mod:`repro.lint.flow`) runs once, in the
  driver process, over the full sorted file set -- so its findings and
  the ``--graph-out`` JSON are byte-identical for any ``--jobs`` value.
  It runs whenever a DRA5xx rule is selected or a graph is requested;
* findings sort by (path, line, col, code) before reporting.

Workers count ``lint.*`` metrics into the process-global registry hook,
which :func:`repro.runtime.executor.metered_parallel_map` merges
exactly in submission order; the driver adds ``lint.wall_ms`` at the
end (a gauge, reported out-of-band so timing never perturbs report
bytes).
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
from repro.lint.suppress import apply_suppressions
from repro.obs import metrics as _metrics
from repro.runtime.executor import metered_parallel_map
from repro.runtime.timing import Stopwatch

__all__ = ["LINT_SCHEMA_VERSION", "PARSE_ERROR_CODE", "LintReport", "lint_paths"]

#: Version stamp of the ``--format json`` payload.
LINT_SCHEMA_VERSION = 1

#: Code attached to files the parser rejects.
PARSE_ERROR_CODE = "DRA002"

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    files: int
    findings: tuple[Finding, ...]
    suppressed: int
    selected: tuple[str, ...] = field(default=())
    #: wall time of the run in milliseconds (reported out-of-band: it is
    #: deliberately NOT part of :meth:`to_payload` nor of report
    #: equality, which must stay identical across runs and ``--jobs``)
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


def round_robin_chunks(files: list[str], jobs: int) -> list[list[str]]:
    """Deterministic chunk assignment: sorted round-robin, no empties.

    ``files[i::jobs]`` depends only on the sorted file list and the job
    count -- when ``len(files) < jobs`` the surplus chunks are simply
    empty and dropped, instead of shifting the partition boundaries the
    way size-based arithmetic does.
    """
    n = max(1, jobs)
    return [chunk for i in range(n) if (chunk := files[i::n])]


def _parse_error_finding(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        code=PARSE_ERROR_CODE,
        message=f"file does not parse: {exc.msg}",
    )


def _lint_context(
    ctx: FileContext,
    select: frozenset[str] | None,
    ignore: frozenset[str] | None,
) -> tuple[list[Finding], int]:
    """Run every per-file rule over one prebuilt context."""
    findings = list(ctx.suppression_findings)
    for rule in RULES.values():
        findings.extend(rule.check(ctx))
    findings = _filter_codes(findings, select, ignore)
    kept, silenced = apply_suppressions(findings, ctx.suppressions)
    kept.sort()
    return kept, silenced


def _filter_codes(
    findings: list[Finding],
    select: frozenset[str] | None,
    ignore: frozenset[str] | None,
) -> list[Finding]:
    if select is not None:
        findings = [f for f in findings if _code_matches(f.code, select)]
    if ignore is not None:
        findings = [f for f in findings if not _code_matches(f.code, ignore)]
    return findings


def _relpath(path: str) -> str:
    return os.path.relpath(path).replace(os.sep, "/")


def _lint_chunk(
    payload: tuple[tuple[str, ...], frozenset[str] | None, frozenset[str] | None],
) -> tuple[list[Finding], int]:
    """Worker: lint one round-robin chunk of files.

    Each file in the chunk is read/parsed/suppression-scanned exactly
    once here; the per-file findings are merged into one sorted list so
    the driver only concatenates and re-sorts.
    """
    files, select, ignore = payload
    findings: list[Finding] = []
    suppressed = 0
    for abspath in files:
        relpath = _relpath(abspath)
        try:
            ctx = FileContext.build(abspath, relpath)
        except SyntaxError as exc:
            errs = _filter_codes([_parse_error_finding(relpath, exc)], select, ignore)
            findings.extend(errs)
            _count_metrics(errs, 0)
            continue
        kept, silenced = _lint_context(ctx, select, ignore)
        findings.extend(kept)
        suppressed += silenced
        _count_metrics(kept, silenced)
    return findings, suppressed


def _count_metrics(kept: list[Finding], silenced: int) -> None:
    reg = _metrics.get_registry()
    if reg is None:
        return
    reg.counter("lint.files").inc()
    if kept:
        reg.counter("lint.findings").inc(len(kept))
        for f in kept:
            reg.counter(f"lint.findings.{f.code}").inc()
    if silenced:
        reg.counter("lint.suppressions").inc(silenced)


def _build_contexts(
    files: list[str],
) -> tuple[list[FileContext], list[tuple[str, SyntaxError]]]:
    """Parse every file once; unparseable files come back separately."""
    contexts: list[FileContext] = []
    errors: list[tuple[str, SyntaxError]] = []
    for abspath in files:
        relpath = _relpath(abspath)
        try:
            contexts.append(FileContext.build(abspath, relpath))
        except SyntaxError as exc:
            errors.append((relpath, exc))
    return contexts, errors


def _flow_pass(
    contexts: list[FileContext],
    select: frozenset[str] | None,
    ignore: frozenset[str] | None,
    graph_out: str | None,
) -> tuple[list[Finding], int]:
    """Run the interprocedural rules once, in the driver process.

    Flow findings obey the sink-line suppression policy: a
    ``# dra: noqa[DRA5xx]`` on the reported (sink) line silences the
    finding; comments on the source/definition lines do not.
    """
    from repro.lint.flow import analyze_project

    findings, graph = analyze_project(contexts)
    if graph_out is not None:
        payload = json.dumps(graph.to_payload(), indent=2, sort_keys=False)
        Path(graph_out).write_text(payload + "\n", encoding="utf-8")
    findings = _filter_codes(findings, select, ignore)
    tables = {ctx.path: ctx.suppressions for ctx in contexts}
    kept: list[Finding] = []
    suppressed = 0
    for f in findings:
        fkept, silenced = apply_suppressions([f], tables.get(f.path, {}))
        kept.extend(fkept)
        suppressed += silenced
    reg = _metrics.get_registry()
    if reg is not None and kept:
        reg.counter("lint.findings").inc(len(kept))
        for f in kept:
            reg.counter(f"lint.findings.{f.code}").inc()
    if reg is not None and suppressed:
        reg.counter("lint.suppressions").inc(suppressed)
    return kept, suppressed


def lint_paths(
    paths: list[str],
    *,
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
    jobs: int = 1,
    graph_out: str | None = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``select``/``ignore`` take rule-code prefixes (``DRA1`` covers all
    of ``DRA1xx``); ``jobs`` fans file chunks out over a process pool
    with the usual bit-identical-report guarantee.  The DRA5xx
    whole-project pass runs in the driver when any DRA5xx code survives
    ``select``/``ignore``, or when ``graph_out`` asks for the call graph
    as schema-versioned JSON.
    """
    watch = Stopwatch()
    with watch:
        files = iter_python_files(paths)
        findings: list[Finding] = []
        suppressed = 0
        contexts: list[FileContext] | None = None
        if jobs <= 1:
            # serial: one parse per file, shared by the per-file rules
            # AND the flow pass below
            contexts, parse_errors = _build_contexts(files)
            for relpath, exc in parse_errors:
                errs = _filter_codes(
                    [_parse_error_finding(relpath, exc)], select, ignore
                )
                findings.extend(errs)
                _count_metrics(errs, 0)
            for ctx in contexts:
                kept, silenced = _lint_context(ctx, select, ignore)
                findings.extend(kept)
                suppressed += silenced
                _count_metrics(kept, silenced)
        else:
            payloads = [
                (tuple(chunk), select, ignore)
                for chunk in round_robin_chunks(files, jobs)
            ]
            for kept, silenced in metered_parallel_map(
                _lint_chunk, payloads, jobs=jobs
            ):
                findings.extend(kept)
                suppressed += silenced
        selected = _selected_codes(select, ignore)
        if graph_out is not None or any(c in FLOW_RULES for c in selected):
            if contexts is None:
                contexts, _ = _build_contexts(files)
            flow_kept, flow_suppressed = _flow_pass(
                contexts, select, ignore, graph_out
            )
            findings.extend(flow_kept)
            suppressed += flow_suppressed
        findings.sort()
    reg = _metrics.get_registry()
    if reg is not None:
        reg.gauge("lint.wall_ms").set(watch.elapsed * 1000.0)
    return LintReport(
        files=len(files),
        findings=tuple(findings),
        suppressed=suppressed,
        selected=selected,
        wall_ms=watch.elapsed * 1000.0,
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
