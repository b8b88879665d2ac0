"""Observability: structured tracing, a metrics registry, logging setup.

Three cooperating layers, all **zero-overhead when disabled**:

* :mod:`~repro.obs.trace` -- a process-global :class:`Tracer` recording
  typed, timestamped :class:`TraceEvent` records (JSONL export) from
  hooks in the simulation engine, the EIB bus channels, the coverage
  planner/fault map, the protocol engine, and the Markov solvers;
* :mod:`~repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges and histograms whose snapshots merge exactly across
  process-pool workers (the same sufficient-statistics discipline as
  ``CycleStatistics``), keeping ``--jobs N`` metric output deterministic
  in content;
* :mod:`~repro.obs.logging_setup` -- one-call stdlib ``logging``
  configuration used by the examples instead of ad-hoc ``print``;
* :mod:`~repro.obs.schema` -- the central registry of every trace-event
  kind and metric name, consumed by the ``trace --strict`` CLI guard,
  the ``repro.lint`` DRA504 rule and the docs catalogue.

On top of those sit the causal-analysis layers: :mod:`~repro.obs.spans`
folds a trace into per-fault :class:`IncidentSpan` timelines (the
``incidents`` subcommand's engine), :mod:`~repro.obs.health` derives
per-LC health scorecards from the spans, and :mod:`~repro.obs.export`
renders a metrics registry in Prometheus text format (``--metrics-out``).

Enable tracing from the CLI with ``--trace PATH`` on any subcommand and
inspect the result with ``python -m repro trace PATH``; see
``docs/observability.md`` for the event catalogue and the overhead
measurement procedure.
"""

from repro.obs.logging_setup import example_logger, setup_logging
from repro.obs.schema import (
    METRIC_FAMILIES,
    METRIC_NAMES,
    TRACE_EVENT_KINDS,
    is_metric_name,
    is_trace_kind,
    metric_family,
    unknown_trace_kinds,
)
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    collecting,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    Tracer,
    get_tracer,
    iter_trace,
    read_trace,
    set_tracer,
    tracing,
)
from repro.obs.spans import (
    INCIDENTS_SCHEMA_VERSION,
    PHASES,
    IncidentSpan,
    SpanBuilder,
    build_incident_report,
)
from repro.obs.health import build_scorecards
from repro.obs.export import render_prometheus, write_prometheus

__all__ = [
    "TRACE_EVENT_KINDS",
    "METRIC_NAMES",
    "METRIC_FAMILIES",
    "is_trace_kind",
    "is_metric_name",
    "metric_family",
    "unknown_trace_kinds",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "tracing",
    "iter_trace",
    "read_trace",
    "INCIDENTS_SCHEMA_VERSION",
    "PHASES",
    "IncidentSpan",
    "SpanBuilder",
    "build_incident_report",
    "build_scorecards",
    "render_prometheus",
    "write_prometheus",
    "METRICS_SCHEMA_VERSION",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "collecting",
    "get_registry",
    "set_registry",
    "setup_logging",
    "example_logger",
]
