"""Incident spans: campaign-pinned 1:1 fault accounting plus edge cases.

The pinned test replays every schedule of an 8-seed chaos campaign under
an in-memory tracer and asserts the tentpole acceptance criterion: every
injected fault folds to exactly one span, and each span's causal phase
timeline respects the lifecycle partial order.  Edge cases cover the
three ways the nominal order breaks: a repair racing the FLT_N
broadcast, a fault that is never detected (coverage factor 0), and an
intermittent unit whose flapping must yield one span per activation.
"""

import pytest

from repro.chaos.campaign import CampaignConfig, _simulate
from repro.chaos.detection import DetectionConfig
from repro.obs import SpanBuilder, TraceEvent, build_incident_report, tracing
from repro.router import ComponentKind, Router, RouterConfig, RouterMode

CFG = CampaignConfig(seeds=8, duration_s=0.002, drain_s=0.012)


def assert_monotone(span) -> None:
    """The lifecycle partial order (NOT a total order: repair can race
    detection, so only injection-anchored and detect-chained inequalities
    may be asserted)."""
    p = span.phase_times()
    for phase in (
        "first_local_detect",
        "first_remote_view",
        "plan_issued",
        "coverage_active",
        "repaired",
        "views_converged",
    ):
        if p[phase] is not None:
            assert p[phase] >= p["injected"], (phase, p)
    if p["first_remote_view"] is not None and p["first_local_detect"] is not None:
        assert p["first_remote_view"] >= p["first_local_detect"]
    if p["views_converged"] is not None:
        assert p["repaired"] is not None
        assert p["views_converged"] >= p["repaired"]


class TestCampaignPin:
    def test_every_injected_fault_folds_to_exactly_one_span(self):
        total = 0
        for idx in range(CFG.seeds):
            with tracing() as tracer:
                _simulate(CFG, idx)
            injected = sorted(
                {
                    ev.data["fault_id"]
                    for ev in tracer.events
                    if ev.kind == "fault.injected"
                }
            )
            spans = SpanBuilder().feed_all(tracer.events).spans()
            assert [s.fault_id for s in spans] == injected
            for span in spans:
                assert_monotone(span)
                assert span.component
                assert span.mode
            total += len(spans)
        assert total > 0, "campaign injected no faults; pin is vacuous"

    def test_report_accounts_for_all_spans(self):
        with tracing() as tracer:
            _simulate(CFG, 0)
        spans = SpanBuilder().feed_all(tracer.events).spans()
        report = build_incident_report(spans, source="pin")
        assert report["schema"] == "repro-incidents"
        assert report["version"] == 1
        assert report["totals"]["spans"] == len(spans)
        assert sum(report["totals"]["by_mode"].values()) == len(spans)
        assert sum(report["totals"]["by_component"].values()) == len(spans)
        import json

        a = json.dumps(report, sort_keys=True)
        spans2 = SpanBuilder().feed_all(tracer.events).spans()
        b = json.dumps(build_incident_report(spans2, source="pin"), sort_keys=True)
        assert a == b  # folding is a pure function of the trace


def _detected_router(**detection) -> Router:
    router = Router(RouterConfig(n_linecards=4, mode=RouterMode.DRA, seed=7))
    router.enable_detection(DetectionConfig(**detection))
    return router


class TestEdgeCases:
    def test_repair_racing_flt_n_keeps_partial_order(self):
        # Repair long before the self-test can see the fault: the span
        # closes with repaired < (never) first_local_detect.
        router = _detected_router(detection_latency_s=10e-6)
        with tracing() as tracer:
            router.run(until=1e-5)
            fid = router.inject_fault(1, ComponentKind.LFE)
            router.run(until=1.2e-5)  # < detection_latency after onset
            router.repair_fault(1, ComponentKind.LFE)
            router.run(until=1e-3)
        spans = SpanBuilder().feed_all(tracer.events).spans()
        span = {s.fault_id: s for s in spans}[fid]
        assert span.repaired is not None
        assert span.first_local_detect is None or (
            span.repaired < span.first_local_detect
        )
        assert_monotone(span)

    def test_never_detected_fault_has_only_inject_and_repair(self):
        # coverage = 0: the per-fault coverage draw marks every fault
        # undetectable, so no view ever learns it.
        router = _detected_router(coverage=0.0)
        with tracing() as tracer:
            router.run(until=1e-5)
            fid = router.inject_fault(2, ComponentKind.LFE)
            router.run(until=5e-4)
            router.repair_fault(2, ComponentKind.LFE)
            router.run(until=1e-3)
        spans = SpanBuilder().feed_all(tracer.events).spans()
        span = {s.fault_id: s for s in spans}[fid]
        assert not span.detected
        assert span.first_local_detect is None
        assert span.first_remote_view is None
        assert span.repaired is not None
        # views never diverged, so they converge at the repair itself
        assert span.views_converged == span.repaired
        assert span.detection_latency_s is None
        assert span.mttr_s == pytest.approx(span.repaired - span.injected)

    def test_intermittent_flapping_one_span_per_activation(self):
        router = _detected_router()
        fids = []
        with tracing() as tracer:
            t = 1e-5
            for _ in range(3):  # three fail/clear episodes of one unit
                router.run(until=t)
                fids.append(
                    router.inject_fault(
                        1, ComponentKind.PDLU, mode="intermittent"
                    )
                )
                router.run(until=t + 2e-4)
                router.repair_fault(1, ComponentKind.PDLU)
                t += 4e-4
            router.run(until=t)
        assert len(set(fids)) == 3  # each activation minted a fresh id
        spans = SpanBuilder().feed_all(tracer.events).spans()
        flap_spans = [s for s in spans if s.fault_id in fids]
        assert len(flap_spans) == 3
        for span in flap_spans:
            assert span.mode == "intermittent"
            assert span.repaired is not None
            assert_monotone(span)

    def test_open_span_when_fault_outlives_trace(self):
        router = _detected_router()
        with tracing() as tracer:
            router.run(until=1e-5)
            fid = router.inject_fault(3, ComponentKind.LFE)
            router.run(until=1e-3)
        span = {s.fault_id: s for s in SpanBuilder().feed_all(tracer.events).spans()}[
            fid
        ]
        assert span.open
        assert span.repaired is None and span.views_converged is None
        assert span.mttr_s is None

    def test_windowed_trace_ignores_unknown_fault_ids(self):
        # A trace cut after the injection: phase events referencing a
        # fault_id with no fault.injected record must not crash or
        # fabricate spans.
        events = [
            TraceEvent(seq=0, kind="detect.local_detect", t=1.0, data={"fault_id": 9}),
            TraceEvent(seq=1, kind="fault.repaired", t=2.0, data={"fault_id": 9}),
        ]
        assert SpanBuilder().feed_all(events).spans() == []
