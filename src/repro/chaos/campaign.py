"""Deterministic chaos campaigns: N seeded fault schedules + invariants.

A campaign runs ``seeds`` independent schedules.  Each schedule builds a
DRA router with a seed derived from ``(base_seed, index)``, switches the
planner onto the detection layer (:mod:`repro.chaos.detection`), offers
uniform load, and lets an accelerated
:class:`~repro.router.faults.FaultInjector` with the full fault
taxonomy (crash / transient / intermittent / fail-slow / control-medium
degradation) tear at it.  After the traffic stops and the router
drains, :func:`repro.chaos.invariants.check_invariants` audits the end
state; any violating schedule is re-run under an in-memory tracer and
reports a trace window around the end of the run.

Schedules fan out through
:func:`repro.runtime.executor.metered_parallel_map`; summaries are
pure, deterministically-ordered JSON so ``--jobs 1`` and ``--jobs 4``
produce bit-identical reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.chaos.detection import DetectionConfig, FaultDetector
from repro.chaos.invariants import check_invariants
from repro.obs import trace as _trace
from repro.router.faults import FaultInjector, FaultModes
from repro.router.router import Router, RouterConfig, RouterMode
from repro.runtime.executor import metered_parallel_map
from repro.traffic.generators import wire_uniform_load

__all__ = ["CampaignConfig", "run_schedule", "run_campaign"]

CAMPAIGN_SCHEMA_VERSION = 1


def _default_modes() -> FaultModes:
    # Every taxonomy member exercised; rates tuned so an accelerated
    # 4 ms schedule sees a handful of faults plus ~0-2 control-medium
    # degradation windows.
    return FaultModes(
        crash_weight=0.4,
        transient_weight=0.25,
        intermittent_weight=0.15,
        fail_slow_weight=0.2,
        ctl_fault_rate=50.0,
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one chaos campaign (shared by every schedule)."""

    seeds: int = 32
    base_seed: int = 0
    n_linecards: int = 6
    load: float = 0.25
    #: traffic + fault window per schedule
    duration_s: float = 0.004
    #: additional quiet time for in-flight work to drain (must exceed
    #: the reassembly timeout so partials abort rather than linger)
    drain_s: float = 0.012
    #: failure-rate acceleration over the paper's per-hour rates
    accel: float = 1e7
    #: repair rate (1/s) at accelerated time
    repair_rate: float = 20000.0
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    modes: FaultModes = field(default_factory=_default_modes)
    #: trace events kept around a violation (tail window)
    trace_events: int = 40
    #: quiet time required before view convergence is asserted; the
    #: drain window exceeds this by construction
    settle_s: float = 0.002
    #: planner v2 coverage policy every schedule runs under ("static"
    #: keeps the paper's slot-rank first-fit; "adaptive" adds scoring,
    #: replanning and fair degradation -- same 13 invariant families).
    coverage_policy: str = "static"

    def __post_init__(self) -> None:
        if self.seeds <= 0:
            raise ValueError(f"seeds must be positive, got {self.seeds}")
        if self.duration_s <= 0.0 or self.drain_s <= 0.0:
            raise ValueError("duration_s and drain_s must be positive")

    def schedule_seed(self, idx: int) -> int:
        """Derived seed for schedule ``idx`` (stable, spawn-keyed)."""
        seq = np.random.SeedSequence(entropy=self.base_seed, spawn_key=(idx,))
        return int(seq.generate_state(1)[0])


def _simulate(
    cfg: CampaignConfig, idx: int
) -> tuple[Router, FaultInjector, FaultDetector]:
    """Build and run schedule ``idx``: traffic and faults, then drain.

    Every RNG stream derives from ``cfg.schedule_seed(idx)``, so the same
    ``cfg`` and ``idx`` always replay the same schedule.
    """
    router = Router(
        RouterConfig(
            n_linecards=cfg.n_linecards,
            mode=RouterMode.DRA,
            seed=cfg.schedule_seed(idx),
            coverage_policy=cfg.coverage_policy,
        )
    )
    detector = router.enable_detection(cfg.detection)
    sources = wire_uniform_load(router, cfg.load)
    injector = FaultInjector.accelerated(
        router,
        router.rng.stream("chaos-injector"),
        accel=cfg.accel,
        repair_rate=cfg.repair_rate,
        modes=cfg.modes,
    )
    injector.start()
    router.engine.run(until=cfg.duration_s)
    injector.stop()
    for src in sources:
        src.stop()
    router.engine.run(until=cfg.duration_s + cfg.drain_s)
    return router, injector, detector


def run_schedule(cfg: CampaignConfig, idx: int) -> dict:
    """Run one seeded fault schedule; return its deterministic summary."""
    router, injector, detector = _simulate(cfg, idx)
    violations = check_invariants(
        router, injector, detector, settle_s=cfg.settle_s
    )

    s = router.stats
    action_counts: dict[str, int] = {}
    mode_counts: dict[str, int] = {}
    for ev in injector.log:
        action_counts[ev.action] = action_counts.get(ev.action, 0) + 1
        if ev.action == "fail":
            mode_counts[ev.mode] = mode_counts.get(ev.mode, 0) + 1
    detections = detector.detections()
    eib = router.eib
    assert eib is not None

    summary: dict = {
        "index": idx,
        "seed": router.config.seed,
        "offered": s.offered,
        "delivered": s.delivered,
        "dropped": s.dropped,
        "drops": {k: v for k, v in sorted(s.drops.items())},
        "fault_actions": {k: v for k, v in sorted(action_counts.items())},
        "fault_modes": {k: v for k, v in sorted(mode_counts.items())},
        "detections": len(detections),
        "mean_detection_latency_s": _mean_detection_latency(detector),
        "ctl_lost": eib.control.lost,
        "ctl_corrupted": eib.control.corrupted,
        "ctl_abandoned": eib.control.failures,
        "violations": [
            {"check": v.check, "detail": v.detail} for v in violations
        ],
    }
    if violations:
        window, incidents = _violation_artifacts(cfg, idx)
        summary["trace_window"] = window
        summary["incident_report"] = incidents
    return summary


def _mean_detection_latency(detector) -> float | None:
    latencies = detector.detection_latencies()
    if not latencies:
        return None
    return float(sum(latencies) / len(latencies))


def _violation_artifacts(cfg: CampaignConfig, idx: int) -> tuple[list[dict], dict]:
    """Re-run a violating schedule under an in-memory tracer.

    Returns the tail of its event stream (context for the violation
    report) plus the ``repro-incidents v1`` report folded from the
    *full* replayed trace -- the causal timeline of every fault the
    schedule injected, so a violation ships with its incident analysis
    attached.
    """
    from repro.obs.spans import SpanBuilder, build_incident_report

    tracer = _trace.Tracer(path=None)
    prev = _trace.TRACER
    _trace.set_tracer(tracer)
    try:
        _simulate(cfg, idx)
    finally:
        _trace.set_tracer(prev)
    window = [
        {"seq": ev.seq, "t": ev.t, "kind": ev.kind, "data": ev.data}
        for ev in tracer.events[-cfg.trace_events :]
    ]
    spans = SpanBuilder().feed_all(tracer.events).spans()
    incidents = build_incident_report(
        spans, source=f"schedule[{idx}] seed={cfg.schedule_seed(idx)}"
    )
    return window, incidents


def _worker(task: tuple[CampaignConfig, int]) -> dict:
    """Module-level shim so schedules pickle into worker processes."""
    cfg, idx = task
    return run_schedule(cfg, idx)


def run_campaign(cfg: CampaignConfig, *, jobs: int = 1) -> dict:
    """Run every schedule of the campaign; return the full report.

    The report is deterministic for a given config regardless of
    ``jobs`` (results come back in submission order, summaries carry no
    wall-clock state).
    """
    tasks = [(cfg, idx) for idx in range(cfg.seeds)]
    schedules = metered_parallel_map(_worker, tasks, jobs=jobs)

    total_violations = sum(len(s["violations"]) for s in schedules)
    totals = {
        "offered": sum(s["offered"] for s in schedules),
        "delivered": sum(s["delivered"] for s in schedules),
        "dropped": sum(s["dropped"] for s in schedules),
        "detections": sum(s["detections"] for s in schedules),
        "ctl_lost": sum(s["ctl_lost"] for s in schedules),
        "ctl_corrupted": sum(s["ctl_corrupted"] for s in schedules),
        "ctl_abandoned": sum(s["ctl_abandoned"] for s in schedules),
        "violations": total_violations,
    }
    return {
        "schema": "repro-chaos",
        "v": CAMPAIGN_SCHEMA_VERSION,
        "config": dataclasses.asdict(cfg),
        "schedules": schedules,
        "totals": totals,
    }
