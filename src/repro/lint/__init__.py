"""``repro.lint``: an AST-based invariant linter for this repository.

The subsystems grown so far (parallel runtime, tracer/metrics, chaos
campaigns, the differential validation harness) rest on conventions
that, when silently broken, corrupt dependability numbers instead of
crashing: randomness must flow from seeded ``SeedSequence`` spawns,
dispatch must iterate in sorted order so ``--jobs N`` is bit-identical,
simulation code must never read the wall clock, and every trace
event/metric name must exist in the :mod:`repro.obs.schema` registry.
This package checks those contracts mechanically over the Python AST
(stdlib :mod:`ast`, no third-party dependency) and backs the
``repro-dra lint`` CLI subcommand and its CI gate.

Rules come in two tiers: the per-file checks (``DRA1xx``--``DRA4xx``)
see one :class:`~repro.lint.context.FileContext` at a time, while the
interprocedural pass (:mod:`repro.lint.flow`, ``DRA5xx``) builds a
whole-project symbol table and call graph -- crossing function, module
and process-pool boundaries -- and can export that graph as
schema-versioned JSON (``lint --graph-out``).

See ``docs/static-analysis.md`` for the rule catalogue (``DRA1xx``
determinism, ``DRA3xx`` testing hygiene, ``DRA4xx`` CLI surface,
``DRA5xx`` interprocedural, sorted dispatch and trace/metric names
included), the ``# dra: noqa[CODE] reason=...`` suppression policy,
and how to add a rule.
"""

from repro.lint.engine import (
    LINT_SCHEMA_VERSION,
    PARSE_ERROR_CODE,
    LintReport,
    UnknownSelectorError,
    iter_python_files,
    lint_paths,
)
from repro.lint.findings import Finding
from repro.lint.flow import GRAPH_SCHEMA_VERSION, analyze_project
from repro.lint.flow.rules5xx import FLOW_RULES
from repro.lint.rules import RULES, Rule, all_codes, rule
from repro.lint.suppress import SUPPRESSION_CODE, Suppression, scan_suppressions

__all__ = [
    "FLOW_RULES",
    "GRAPH_SCHEMA_VERSION",
    "LINT_SCHEMA_VERSION",
    "PARSE_ERROR_CODE",
    "SUPPRESSION_CODE",
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "Suppression",
    "UnknownSelectorError",
    "all_codes",
    "analyze_project",
    "iter_python_files",
    "lint_paths",
    "rule",
    "scan_suppressions",
]
