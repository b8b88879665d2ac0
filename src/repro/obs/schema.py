"""Central schema-v1 registry of trace-event kinds and metric names.

Every ``Tracer.emit`` kind and every ``MetricsRegistry`` counter/gauge/
histogram name used anywhere in the package is declared here, once.
Three consumers treat this module as the source of truth:

* the ``trace`` CLI subcommand's schema guard, which (under
  ``--strict``) rejects a JSONL file containing event kinds this
  registry does not know;
* the static analyser (:mod:`repro.lint`), whose DRA504 rule requires
  emit/metric call sites to use names that constant-fold to a
  registration here -- so an instrumented site cannot silently drift
  away from the catalogue in ``docs/observability.md``;
* the observability docs and tests, which cross-check the tables
  against these mappings instead of duplicating the string lists.

Names fall in two groups: **exact names** (``TRACE_EVENT_KINDS``,
``METRIC_NAMES``) and **dynamic families** (``METRIC_FAMILIES``) whose
instances share a registered literal prefix and append one runtime tag,
e.g. ``bus.data.dropped.<reason>``.  Adding an event or metric means
adding a line here (and a row in ``docs/observability.md``); the lint
gate fails otherwise.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "TRACE_EVENT_KINDS",
    "METRIC_NAMES",
    "METRIC_FAMILIES",
    "is_trace_kind",
    "is_metric_name",
    "metric_family",
    "unknown_trace_kinds",
]

#: Every registered trace-event kind -> one-line description (the docs
#: catalogue carries payload details).
TRACE_EVENT_KINDS: Mapping[str, str] = {
    # simulation engine (src/repro/sim/engine.py)
    "sim.fire": "an event fires (t = its scheduled time)",
    "sim.cancel": "a lazily-cancelled event is discarded",
    # EIB control channel, CSMA/CD (src/repro/router/bus.py)
    "bus.ctl.deliver": "a control broadcast completes",
    "bus.ctl.collision": "two stations started within the vulnerability window",
    "bus.ctl.backoff": "binary-exponential backoff scheduled after a collision",
    "bus.ctl.defer": "carrier sense found the medium busy",
    "bus.ctl.abandon": "packet dropped after max_attempts",
    "bus.ctl.lost": "control packet lost on a degraded medium",
    "bus.ctl.corrupt": "control packet corrupted on a degraded medium",
    # EIB data channel, TDM (src/repro/router/bus.py)
    "bus.lp.open": "a logical path opens",
    "bus.lp.close": "a logical path finishes draining and closes",
    "bus.tdm.grant": "the TDM scheduler grants a slot",
    "bus.data.drop": "a data transfer is dropped",
    # switching fabric (src/repro/router/fabric.py)
    "fabric.drop": "a dead fabric clears a port queue (cells discarded)",
    # recovery / coverage (src/repro/router/recovery.py, protocol.py)
    "recovery.fault_mark": "the fault map marks a component faulty",
    "recovery.fault_clear": "the fault map clears a repaired component",
    "coverage.plan": "a non-trivial coverage plan (EIB leg or drop)",
    "coverage.egress_mode": "the egress leg leaves the fabric",
    "protocol.stream_active": "a coverage stream is established",
    "protocol.stream_failed": "a REQ_D solicitation timed out unanswered",
    "protocol.reserve_race": "the winning responder's headroom evaporated before resolution",
    # planner v2 (src/repro/router/planner2.py, protocol.py)
    "coverage.replan": "a failed stream re-solicits ahead of the retry cooldown",
    "coverage.degraded": "proportional rate shed under aggregate EIB overload",
    # router datapath (src/repro/router/router.py)
    "router.packet_drop": "a packet is terminally dropped by the datapath",
    # fault lifecycle correlation (src/repro/router/router.py)
    "fault.injected": "a hardware fault activates (mints its fault_id)",
    "fault.repaired": "a hardware fault deactivates (repair or auto-clear)",
    # fault detection (src/repro/chaos/detection.py)
    "detect.local_detect": "a self-test detects a local fault",
    "detect.local_clear": "a repaired local fault is cleared from the view",
    "detect.remote_learn": "an LC's view learns a remote fault (FLT_N or HB)",
    "detect.remote_clear": "an LC's view clears a remote fault (FLT_C or HB)",
    # solvers (src/repro/markov/, src/repro/montecarlo/) -- t is null
    "solver.uniformization": "uniformization picked its Poisson truncation",
    "solver.stationary": "a stationary solve finished",
    "solver.importance_sampling": "one batch of regenerative cycles completed",
    # differential validation (src/repro/validate/) -- t is null
    "validate.pair": "one oracle/estimator pair judged",
    "validate.suite": "the suite verdict",
}

#: Every registered exact metric name -> "kind: description".
METRIC_NAMES: Mapping[str, str] = {
    # EIB control channel
    "bus.ctl.sent": "counter: control broadcasts attempted",
    "bus.ctl.collisions": "counter: CSMA/CD collisions",
    "bus.ctl.deferrals": "counter: carrier-sense deferrals",
    "bus.ctl.abandoned": "counter: packets dropped after max_attempts",
    "bus.ctl.lost": "counter: packets lost on a degraded medium",
    "bus.ctl.corrupted": "counter: packets corrupted on a degraded medium",
    # EIB data channel
    "bus.lp.opened": "counter: logical paths opened",
    "bus.lp.closed": "counter: logical paths closed",
    "bus.lp.open": "gauge: logical paths currently open",
    "bus.tdm.grants": "counter: TDM slots granted",
    "bus.data.dropped": "counter: data transfers dropped",
    # switching fabric
    "fabric.cells_dropped": "counter: cells discarded when a dead fabric clears a port queue",
    # recovery / coverage / protocol
    "recovery.faults_marked": "counter: fault-map mark transitions",
    "recovery.faults_repaired": "counter: fault-map clear transitions",
    "coverage.plans.dropped": "counter: coverage plans that had to drop",
    "protocol.streams_established": "counter: coverage streams established",
    "protocol.streams_failed": "counter: coverage solicitations timed out",
    "protocol.reserve_races": "counter: reservations lost to the REP_D/resolution race",
    # planner v2
    "coverage.replans": "counter: backoff re-solicitations fired",
    "coverage.degradations": "counter: proportional rate-shedding rounds",
    # solvers
    "solver.stationary.solves": "counter: stationary solves",
    "solver.stationary.residual": "gauge: max |pi Q| of the last solve",
    "solver.uniformization.solves": "counter: uniformization solves",
    "solver.uniformization.iterations": "counter: Poisson terms summed",
    "solver.uniformization.truncation_k": "gauge: truncation point K",
    # Monte Carlo importance sampling
    "mc.is.cycles": "counter: regenerative cycles simulated",
    "mc.is.rare_hits": "counter: cycles that reached the rare set",
    # differential validation
    "validate.pairs.evaluated": "counter: oracle/estimator pairs evaluated",
    "validate.pairs.failed": "counter: pairs that failed after escalation",
    "validate.escalations": "counter: 4x sample-size escalations",
    # static analysis (repro.lint)
    "lint.files": "counter: files scanned",
    "lint.findings": "counter: unsuppressed findings",
    "lint.suppressions": "counter: findings silenced by dra: noqa",
    "lint.wall_ms": "gauge: wall time of one lint run (CI budget guard)",
    # causal incident analysis (repro.obs.spans, the `incidents` subcommand)
    "incident.spans": "counter: incident spans folded out of a trace",
    "incident.open_spans": "counter: spans never repaired within the trace",
    "incident.undetected_spans": "counter: spans no self-test ever detected",
    "incident.detection_latency_s": "histogram: injection to first local detect",
    "incident.notification_fanout_s": "histogram: local detect to first remote view",
    "incident.time_to_coverage_s": "histogram: injection to active coverage stream",
    "incident.mttr_s": "histogram: injection to repair",
}

#: Dynamic metric families: literal prefix -> known suffixes (``None``
#: means the suffix set is open, e.g. packet kinds or drop reasons).
#: An f-string metric name is schema-conformant when its literal prefix
#: is registered here.
METRIC_FAMILIES: Mapping[str, tuple[str, ...] | None] = {
    "bus.ctl.sent.": None,  # one per ControlKind value
    "bus.data.dropped.": ("no_lp", "unhealthy", "buffer_full", "rate_limited"),
    "coverage.plans.": ("case1", "case2", "case3", "dropped"),
    "lint.findings.": None,  # one per DRA rule code
    # per-LC health scorecards (repro.obs.health): health.lc.<id>.<field>
    "health.lc.": None,
}


def is_trace_kind(kind: str) -> bool:
    """True when ``kind`` is a registered trace-event kind."""
    return kind in TRACE_EVENT_KINDS


def metric_family(name: str) -> str | None:
    """The registered family prefix covering ``name``, if any."""
    for prefix in METRIC_FAMILIES:
        if name.startswith(prefix):
            return prefix
    return None


def is_metric_name(name: str) -> bool:
    """True when ``name`` is registered exactly or via a family prefix."""
    return name in METRIC_NAMES or metric_family(name) is not None


def unknown_trace_kinds(kinds: Iterable[str]) -> list[str]:
    """Sorted distinct members of ``kinds`` absent from the registry.

    The ``trace`` CLI subcommand uses this as its strict-mode guard: a
    trace produced by instrumented code can only contain registered
    kinds, so anything unknown means an emit site bypassed the schema.
    """
    return sorted({k for k in kinds if not is_trace_kind(k)})
