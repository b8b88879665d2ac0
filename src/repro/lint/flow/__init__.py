"""Whole-project (interprocedural) analysis layer for ``repro.lint``.

The per-file rules (DRA1xx--DRA4xx) see one AST at a time; this package
sees all of them at once.  :func:`analyze_project` is the single entry
point the engine calls: it builds the symbol table
(:mod:`~repro.lint.flow.modules`), the call graph with pool-boundary
and scheduler-frame edges (:mod:`~repro.lint.flow.callgraph`), the
dataflow summaries (:mod:`~repro.lint.flow.dataflow`), and then runs
the five DRA5xx rule families (:mod:`~repro.lint.flow.rules5xx`) over
the result.

Everything here is deterministic -- modules are indexed in sorted-path
order, reachability is attributed by sorted BFS, and findings are
sorted by the engine -- so the report and the ``--graph-out`` JSON are
byte-identical from run to run.
"""

from __future__ import annotations

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import (
    GRAPH_SCHEMA_VERSION,
    CallGraph,
    build_callgraph,
)
from repro.lint.flow.dataflow import unordered_summaries
from repro.lint.flow.modules import ProjectIndex
from repro.lint.flow.rules5xx import FLOW_RULES, ProjectAnalysis

__all__ = [
    "FLOW_RULES",
    "GRAPH_SCHEMA_VERSION",
    "CallGraph",
    "ProjectAnalysis",
    "ProjectIndex",
    "analyze_project",
    "build_callgraph",
]


def analyze_project(
    contexts: list[FileContext],
) -> tuple[list[Finding], CallGraph]:
    """Run every interprocedural rule over the parsed file set.

    Returns the (unsorted, unsuppressed) findings plus the call graph,
    so the engine can both merge/suppress the findings and serve
    ``--graph-out``.
    """
    index = ProjectIndex(contexts)
    graph = build_callgraph(index)
    analysis = ProjectAnalysis(
        index=index,
        graph=graph,
        unordered=unordered_summaries(index),
        worker_reach=graph.reachable_from(graph.worker_entries),
        sched_reach=graph.reachable_from(graph.scheduled_entries),
    )
    findings: list[Finding] = []
    for code in sorted(FLOW_RULES):
        findings.extend(FLOW_RULES[code].check(analysis))
    return findings, graph
