"""Fault map and coverage planning (Section 3.2's Cases 1-3).

:class:`FaultMap` is the ground-truth registry of which components are
down.  In hardware each LC maintains its own copy via the
processing-tier parameters of the control packets; by default the model
keeps one authoritative map and treats dissemination as instantaneous.
With the detection layer enabled (:mod:`repro.chaos.detection`), the
planner instead consults per-LC :class:`~repro.chaos.detection.LocalFaultView`
objects that converge only after self-test latency plus FLT_N/HB
dissemination over the CSMA/CD control lines -- see
:meth:`CoveragePlanner.set_views`.

:class:`CoveragePlanner` turns (packet, fault map) into a
:class:`CoveragePlan` describing how the packet must move: which side
needs EIB coverage, whether the lookup is remote, and how the egress leg
reaches a faulty destination (direct EIB from the source, or fabric to an
LC_inter that finishes processing and relays over the EIB).
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.router.components import ComponentKind
from repro.router.linecard import Linecard
from repro.router.packets import Packet

__all__ = ["FaultMap", "CoveragePlan", "CoveragePlanner", "EgressMode", "DropReason"]


class FaultMap:
    """Shared registry of failed components per LC plus EIB state."""

    def __init__(self) -> None:
        #: per-LC map of failed kind -> fault_id of the causing fault
        #: (``None`` when the caller did not thread a correlation id).
        self._failed: dict[int, dict[ComponentKind, int | None]] = {}
        self.eib_healthy = True
        #: optional simulation-clock callable used to timestamp trace
        #: events (wired by :class:`~repro.router.router.Router`).
        self.clock: Callable[[], float] | None = None

    def _now(self) -> float | None:
        return self.clock() if self.clock is not None else None

    def mark_failed(
        self, lc_id: int, kind: ComponentKind, fault_id: int | None = None
    ) -> None:
        """Record a component failure (``fault_id`` correlates its events)."""
        self._failed.setdefault(lc_id, {})[kind] = fault_id
        if _metrics.REGISTRY is not None:
            _metrics.REGISTRY.counter("recovery.faults_marked").inc()
        if _trace.TRACER is not None:
            _trace.TRACER.emit(
                "recovery.fault_mark",
                t=self._now(),
                lc=lc_id,
                component=kind.value,
                fault_id=fault_id,
            )

    def mark_repaired(self, lc_id: int, kind: ComponentKind) -> None:
        """Clear a component failure.

        The LC's entry is pruned once its last fault clears, keeping the
        map O(active faults) over long flapping campaigns instead of
        accumulating empty sets for every LC that ever failed.
        """
        faults = self._failed.get(lc_id)
        fault_id = None
        if faults is not None:
            fault_id = faults.pop(kind, None)
            if not faults:
                del self._failed[lc_id]
        if _metrics.REGISTRY is not None:
            _metrics.REGISTRY.counter("recovery.faults_repaired").inc()
        if _trace.TRACER is not None:
            _trace.TRACER.emit(
                "recovery.fault_clear",
                t=self._now(),
                lc=lc_id,
                component=kind.value,
                fault_id=fault_id,
            )

    def failed_at(self, lc_id: int) -> set[ComponentKind]:
        """Failed component kinds at ``lc_id``."""
        return set(self._failed.get(lc_id, {}))

    def fault_id_of(self, lc_id: int, kind: ComponentKind) -> int | None:
        """Correlation id of the live fault at (``lc_id``, ``kind``), if any."""
        return self._failed.get(lc_id, {}).get(kind)

    def is_failed(self, lc_id: int, kind: ComponentKind) -> bool:
        """True when the given unit is currently down."""
        return kind in self._failed.get(lc_id, {})

    def any_failed(self, lc_id: int) -> bool:
        """True when any unit of the LC is down."""
        return bool(self._failed.get(lc_id))

    def active_faults(self) -> dict[int, set[ComponentKind]]:
        """Copy of the live fault registry (for views and invariants)."""
        return {lc: set(kinds) for lc, kinds in self._failed.items()}

    def is_compact(self) -> bool:
        """True when no LC entry is an empty leftover set (see
        :meth:`mark_repaired`); checked by the chaos invariants."""
        return all(self._failed.values())


class EgressMode(enum.Enum):
    """How a packet reaches its outgoing LC."""

    FABRIC = "fabric"          # healthy path: cells over the crossbar
    EIB_DIRECT = "eib-direct"  # whole packet over the EIB straight to LC_out
    EIB_VIA_INTER = "eib-via-inter"  # fabric to LC_inter, then EIB to LC_out


class DropReason:
    """Canonical drop-reason strings (kept together for test assertions)."""

    PIU_IN = "piu_in_failed"
    PIU_OUT = "piu_out_failed"
    BDR_LC_DOWN_IN = "bdr_ingress_lc_down"
    BDR_LC_DOWN_OUT = "bdr_egress_lc_down"
    NO_COVERAGE = "no_coverage"
    EIB_DOWN = "eib_down"
    BUS_CONTROLLER = "bus_controller_failed"
    NO_ROUTE = "no_route"
    FABRIC_DOWN = "fabric_down"
    EIB_OVERLOAD = "eib_overload"
    COMPOUND_FAULT = "uncovered_compound_fault"
    MID_FLIGHT_FAULT = "component_failed_mid_flight"


@dataclass
class CoveragePlan:
    """The planner's decision for one packet.

    ``None`` fields mean "not needed".  ``drop`` short-circuits the whole
    pipeline with the recorded reason.
    """

    drop: str | None = None
    #: fault kind at the ingress LC needing a covering LC (PDLU or SRU)
    ingress_fault: ComponentKind | None = None
    #: ingress lookup must be served remotely over REQ_L/REP_L
    remote_lookup: bool = False
    egress_mode: EgressMode = EgressMode.FABRIC
    #: fault kind at the egress LC being covered (PDLU or SRU), if any
    egress_fault: ComponentKind | None = None
    #: correlation ids of the faults this plan responds to, as known by
    #: the planning view (``None`` when the view has no id, e.g. a
    #: belief learned before the fault was ever correlated)
    ingress_fault_id: int | None = None
    egress_fault_id: int | None = None
    lookup_fault_id: int | None = None

    @property
    def fault_ids(self) -> list[int]:
        """Sorted distinct correlation ids the plan covers."""
        return sorted(
            {
                fid
                for fid in (
                    self.ingress_fault_id,
                    self.egress_fault_id,
                    self.lookup_fault_id,
                )
                if fid is not None
            }
        )

    @property
    def uses_eib(self) -> bool:
        """True when any leg of the plan rides the EIB."""
        return (
            self.ingress_fault is not None
            or self.remote_lookup
            or self.egress_mode is not EgressMode.FABRIC
        )

    @property
    def case_tags(self) -> list[str]:
        """Section 3.2 case labels this plan exercises.

        ``case1`` -- remote lookup service (lone LFE fault, REQ_L/REP_L);
        ``case2`` -- ingress-side coverage stream to an LC_inter;
        ``case3`` -- egress-side EIB leg (direct or via LC_inter).
        """
        tags = []
        if self.remote_lookup:
            tags.append("case1")
        if self.ingress_fault is not None:
            tags.append("case2")
        if self.egress_mode is not EgressMode.FABRIC:
            tags.append("case3")
        return tags


class CoveragePlanner:
    """Derives per-packet coverage plans from the fault map.

    The planner implements exactly the cases the paper enumerates
    (Section 3.2).  Fault *combinations* that would require chaining two
    covering LCs on both sides of the fabric are outside the paper's
    model (its analysis assumption 1 explicitly excludes multi-LC_inter
    chains) and are dropped with :data:`DropReason.COMPOUND_FAULT`.
    """

    def __init__(self, linecards: dict[int, Linecard], faults: FaultMap) -> None:
        self._lcs = linecards
        self._faults = faults
        self._views: dict[int, object] | None = None
        #: optional simulation-clock callable for trace timestamps.
        self.clock: Callable[[], float] | None = None

    def set_views(self, views: dict[int, object] | None) -> None:
        """Switch planning from the oracle map to per-LC fault views.

        ``views`` maps each LC id to an object exposing the FaultMap read
        API (``failed_at`` at minimum); packets are then planned from the
        *ingress* LC's possibly-stale view, which is what opens the
        detection-latency window the chaos campaigns measure.  Pass
        ``None`` to restore oracle planning.
        """
        self._views = views

    def _map_for(self, lc_id: int):
        if self._views is None:
            return self._faults
        return self._views[lc_id]

    def plan(self, packet: Packet) -> CoveragePlan:
        """Build the coverage plan for ``packet`` under the current faults.

        Non-trivial plans (any EIB leg, or a drop decision) are emitted to
        the active tracer as ``coverage.plan`` events carrying the
        Section 3.2 case tags; healthy fabric-only plans stay untraced to
        bound trace volume on fault-free traffic.
        """
        plan = self._plan(packet)
        if plan.drop is not None or plan.uses_eib:
            if _metrics.REGISTRY is not None:
                reg = _metrics.REGISTRY
                for tag in plan.case_tags:
                    reg.counter(f"coverage.plans.{tag}").inc()
                if plan.drop is not None:
                    reg.counter("coverage.plans.dropped").inc()
            if _trace.TRACER is not None:
                _trace.TRACER.emit(
                    "coverage.plan",
                    t=self.clock() if self.clock is not None else None,
                    src_lc=packet.src_lc,
                    dst_lc=packet.dst_lc,
                    cases=plan.case_tags,
                    egress_mode=plan.egress_mode.value,
                    drop=plan.drop,
                    fault_ids=plan.fault_ids,
                )
                if plan.egress_mode is not EgressMode.FABRIC:
                    _trace.TRACER.emit(
                        "coverage.egress_mode",
                        t=self.clock() if self.clock is not None else None,
                        dst_lc=packet.dst_lc,
                        mode=plan.egress_mode.value,
                        fault=None if plan.egress_fault is None else plan.egress_fault.value,
                    )
        return plan

    def _plan(self, packet: Packet) -> CoveragePlan:
        src, dst = packet.src_lc, packet.dst_lc
        # The ingress LC plans from *its* view: under the detection layer
        # a remote (or even local, below coverage) fault it has not yet
        # learned of yields a stale fabric plan and a mid-flight drop.
        fmap = self._map_for(src)
        f_src = fmap.failed_at(src)
        f_dst = fmap.failed_at(dst)

        # PIU failures disconnect the external link -- never coverable.
        if ComponentKind.PIU in f_src:
            return CoveragePlan(drop=DropReason.PIU_IN)
        if ComponentKind.PIU in f_dst and dst != src:
            return CoveragePlan(drop=DropReason.PIU_OUT)

        plan = CoveragePlan()

        # --- ingress side (Case 2) ---
        if ComponentKind.PDLU in f_src:
            plan.ingress_fault = ComponentKind.PDLU
        elif ComponentKind.SRU in f_src:
            plan.ingress_fault = ComponentKind.SRU
        if plan.ingress_fault is not None:
            plan.ingress_fault_id = fmap.fault_id_of(src, plan.ingress_fault)
        if ComponentKind.LFE in f_src and plan.ingress_fault is None:
            # With a PDLU/SRU coverage stream the covering LC also does the
            # lookup; only a lone LFE fault needs the REQ_L service.
            plan.remote_lookup = True
            plan.lookup_fault_id = fmap.fault_id_of(src, ComponentKind.LFE)

        # --- egress side (Case 3) ---
        dst_pdlu_down = ComponentKind.PDLU in f_dst and dst != src
        dst_sru_down = ComponentKind.SRU in f_dst and dst != src
        if dst_sru_down and dst_pdlu_down:
            # Both egress processing units gone: the paper provides no
            # combined path (the SRU route targets the PDLU and vice versa).
            return CoveragePlan(drop=DropReason.COMPOUND_FAULT)
        if dst_sru_down:
            # "LC_in sends the reassembled data through its SRU to the PDLU
            # of LC_out": whole packets over the EIB, skipping dst's SRU.
            plan.egress_mode = EgressMode.EIB_DIRECT
            plan.egress_fault = ComponentKind.SRU
            plan.egress_fault_id = fmap.fault_id_of(dst, ComponentKind.SRU)
        elif dst_pdlu_down:
            plan.egress_fault = ComponentKind.PDLU
            plan.egress_fault_id = fmap.fault_id_of(dst, ComponentKind.PDLU)
            src_lc = self._lcs[src]
            dst_lc = self._lcs[dst]
            same_protocol = (
                src_lc.pdlu is not None
                and src_lc.pdlu.healthy
                and src_lc.protocol is dst_lc.protocol
            )
            if same_protocol and plan.ingress_fault is None:
                # First alternative: LC_in's own PDLU finishes the packet
                # and ships it over the EIB directly to LC_out's PIU.
                plan.egress_mode = EgressMode.EIB_DIRECT
            else:
                # Second alternative: cells cross the fabric to an LC_inter
                # of LC_out's protocol, which reassembles, runs its PDLU,
                # and relays the packet over the EIB.
                plan.egress_mode = EgressMode.EIB_VIA_INTER

        # Combining an ingress coverage detour with an egress EIB leg would
        # chain two LC_inter hops -- excluded by the paper's model.
        if plan.ingress_fault is not None and plan.egress_mode is not EgressMode.FABRIC:
            return CoveragePlan(drop=DropReason.COMPOUND_FAULT)

        return plan

    def ingress_candidates(
        self, packet: Packet, fault: ComponentKind, rate_bps: float
    ) -> list[int]:
        """LCs able to cover an ingress-side fault (candidate LC_inters).

        Protocol matching applies only for PDLU faults; LC_out is excluded
        per the analysis assumption that it stays clean of coverage duty.
        """
        src = self._lcs[packet.src_lc]
        # sorted(): candidate ranking must not depend on dict insertion
        # order (DRA503 spirit -- LCs are usually built 0..N-1, but any
        # construction order must yield the same ranking).
        return [
            lc_id
            for lc_id, lc in sorted(self._lcs.items())
            if lc_id not in (packet.src_lc, packet.dst_lc)
            and lc.can_cover(fault, src.protocol, rate_bps)
        ]

    def egress_inter_candidates(self, packet: Packet, rate_bps: float) -> list[int]:
        """LC_inter candidates for the EIB_VIA_INTER egress route."""
        dst = self._lcs[packet.dst_lc]
        return [
            lc_id
            for lc_id, lc in sorted(self._lcs.items())
            if lc_id not in (packet.src_lc, packet.dst_lc)
            and lc.can_cover(ComponentKind.PDLU, dst.protocol, rate_bps)
            and lc.sru.healthy
        ]
