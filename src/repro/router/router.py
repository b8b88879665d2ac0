"""The assembled router: BDR and DRA modes.

:class:`Router` wires linecards, the switching fabric, and (in DRA mode)
the EIB with its protocol engine and coverage planner into one packet
pipeline:

    PIU -> [PDLU] -> SRU -> LFE lookup -> fabric cells -> SRU -> [PDLU] -> PIU

Every stage checks component health at execution time.  In BDR mode any
datapath fault at the ingress or egress LC drops the packet (the whole LC
is effectively down -- the paper's motivating observation).  In DRA mode
the :class:`~repro.router.recovery.CoveragePlanner` reroutes the affected
leg over the EIB according to Section 3.2's cases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.obs import trace as _trace
from repro.router.bus import EIB
from repro.router.components import ComponentKind
from repro.router.fabric import SwitchFabric
from repro.router.linecard import Linecard
from repro.router.packets import Packet, Protocol, segment
from repro.router.planner2 import POLICY_NAMES, make_policy
from repro.router.protocol import CoverageStream, EIBProtocol
from repro.router.reassembly import ReassemblyBuffer
from repro.router.recovery import (
    CoveragePlan,
    CoveragePlanner,
    DropReason,
    EgressMode,
    FaultMap,
)
from repro.router.routing import RouteProcessor
from repro.router.stats import RouterStats
from repro.sim import Engine, RngRegistry

__all__ = ["Router", "RouterConfig", "RouterMode"]


class RouterMode(enum.Enum):
    """Architecture being simulated."""

    BDR = "bdr"
    DRA = "dra"
    #: BDR plus explicit standby linecards (one pool per protocol): the
    #: "at least one redundant LC for each protocol type" alternative the
    #: paper's Section 3 calls an expensive proposition.  A datapath fault
    #: triggers an automatic swap to a spare after ``spare_swap_delay_s``.
    SPARED = "spared"


@dataclass(frozen=True)
class RouterConfig:
    """Static router parameters.

    ``protocols`` assigns an L2 protocol per LC, cycled when shorter than
    ``n_linecards`` (the default gives an all-Ethernet router, i.e. the
    analysis's M = N case).
    """

    n_linecards: int = 6
    mode: RouterMode = RouterMode.DRA
    protocols: tuple[Protocol, ...] = (Protocol.ETHERNET,)
    lc_capacity_bps: float = 10e9
    eib_data_bps: float = 20e9
    eib_control_bps: float = 2e9
    fabric_cell_rate: float = 25e6
    fabric_active_cards: int = 4
    fabric_spare_cards: int = 1
    #: SPARED mode: standby LCs per protocol and the failover time.
    spares_per_protocol: int = 1
    spare_swap_delay_s: float = 2e-3
    seed: int = 0
    #: planner v2 coverage policy: "static" reproduces the paper's
    #: slot-rank first-fit contention bit for bit; "adaptive" scores
    #: LC_inter candidates by headroom/health/spread, replans active
    #: streams on fault news, and sheds rate fairly under EIB overload.
    coverage_policy: str = "static"

    def __post_init__(self) -> None:
        if self.n_linecards < 2:
            raise ValueError(f"need at least 2 linecards, got {self.n_linecards}")
        if not self.protocols:
            raise ValueError("protocols must not be empty")
        if self.coverage_policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown coverage policy {self.coverage_policy!r} "
                f"(choose from {POLICY_NAMES})"
            )

    def protocol_of(self, lc_id: int) -> Protocol:
        """Protocol assigned to ``lc_id`` (cycling)."""
        return self.protocols[lc_id % len(self.protocols)]


class Router:
    """An executable router instance tied to a simulation engine."""

    def __init__(self, config: RouterConfig, engine: Engine | None = None) -> None:
        self.config = config
        self.engine = engine or Engine()
        self.rng = RngRegistry(seed=config.seed)
        self.stats = RouterStats()
        self.mode = config.mode

        self.linecards: dict[int, Linecard] = {
            i: Linecard(
                i,
                config.protocol_of(i),
                dra=config.mode is RouterMode.DRA,
                capacity_bps=config.lc_capacity_bps,
            )
            for i in range(config.n_linecards)
        }
        #: SPARED mode: remaining standby cards per protocol.
        self.spares: dict[Protocol, int] = {}
        if config.mode is RouterMode.SPARED:
            for i in range(config.n_linecards):
                proto = config.protocol_of(i)
                self.spares.setdefault(proto, config.spares_per_protocol)
        #: LCs currently failing over to a spare (packets drop meanwhile).
        self._swapping: set[int] = set()
        self.route_processor = RouteProcessor()
        self.route_processor.default_full_mesh(config.n_linecards)
        self.distribute_tables()

        self.fabric = SwitchFabric(
            self.engine,
            config.n_linecards,
            port_rate_cells_per_s=config.fabric_cell_rate,
            n_active_cards=config.fabric_active_cards,
            n_spare_cards=config.fabric_spare_cards,
        )

        self.faults = FaultMap()
        # Timestamp fault-map / planner trace events with simulation time.
        self.faults.clock = lambda: self.engine.now
        if config.mode is RouterMode.DRA:
            self.eib: EIB | None = EIB(
                self.engine,
                list(self.linecards),
                self.rng.stream("eib"),
                data_rate_bps=config.eib_data_bps,
                control_rate_bps=config.eib_control_bps,
            )
            self.planner: CoveragePlanner | None = CoveragePlanner(
                self.linecards, self.faults
            )
            self.planner.clock = lambda: self.engine.now
            self.protocol: EIBProtocol | None = EIBProtocol(
                self.engine,
                self.eib,
                self.linecards,
                self.stats,
                self.rng.stream("protocol"),
                policy=make_policy(config.coverage_policy),
            )
        else:
            self.eib = None
            self.planner = None
            self.protocol = None

        #: detection layer (oracle dissemination when ``None``); set by
        #: :meth:`enable_detection`.
        self.detector = None

        #: per-LC offered rate (bps), set by traffic wiring; used as the
        #: data-rate parameter of coverage solicitations.
        self._offered_bps: dict[int, float] = {i: 0.0 for i in self.linecards}

        #: per-LC egress SRU reassembly buffers (cells -> packets).
        self.reassembly: dict[int, ReassemblyBuffer] = {
            i: ReassemblyBuffer(self.engine) for i in self.linecards
        }

        #: fault-correlation bookkeeping: every fault *activation* (LC
        #: component or EIB lines) mints one monotonically increasing
        #: ``fault_id`` that is threaded through detection, planning,
        #: coverage streams and repair, so a trace folds into per-fault
        #: incident spans (:mod:`repro.obs.spans`).
        self._fault_seq = 0
        self._active_fault_ids: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------

    def distribute_tables(self) -> None:
        """Push fresh routing-table copies from the RP to every LFE."""
        for lc in self.linecards.values():
            lc.table = self.route_processor.distribute()

    def set_offered_load(self, lc_id: int, rate_bps: float) -> None:
        """Declare the traffic load entering at ``lc_id``.

        The load both sizes coverage solicitations (the REQ_D data-rate
        parameter) and occupies the LC's own capacity, shrinking the
        headroom it can offer others (Section 5.3's psi).
        """
        if rate_bps < 0.0:
            raise ValueError(f"negative load {rate_bps}")
        lc = self.linecards[lc_id]
        previous = self._offered_bps[lc_id]
        lc.release(previous)
        if not lc.reserve(rate_bps):
            lc.release(0.0)
            raise ValueError(
                f"offered load {rate_bps} exceeds LC {lc_id} capacity "
                f"{lc.capacity_bps}"
            )
        self._offered_bps[lc_id] = rate_bps

    def offered_load(self, lc_id: int) -> float:
        """Configured offered rate at ``lc_id``."""
        return self._offered_bps[lc_id]

    def _stream_rate(self, lc_id: int) -> float:
        """Data rate posted in coverage solicitations for ``lc_id``.

        Floored at 1% of the LC capacity so a router whose traffic wiring
        never declared a load still gets a usable (non-zero) B_prom
        promise on the EIB.
        """
        return max(self._offered_bps[lc_id], 0.01 * self.config.lc_capacity_bps)

    def run(self, until: float) -> None:
        """Advance the simulation to time ``until``."""
        self.engine.run(until=until)

    def enable_detection(self, config=None):
        """Replace oracle fault dissemination with the EIB detection layer.

        Each LC gets a :class:`~repro.chaos.detection.LocalFaultView` that
        converges only after periodic self-tests (with configurable
        latency and imperfect coverage) and FLT_N/FLT_C/HB control
        packets over the CSMA/CD lines; the coverage planner then plans
        from the ingress LC's possibly-stale view.  Returns the detector.
        """
        if self.mode is not RouterMode.DRA:
            raise RuntimeError("fault detection rides the EIB: DRA routers only")
        from repro.chaos.detection import DetectionConfig, FaultDetector

        detector = FaultDetector(self, config or DetectionConfig())
        self.detector = detector
        assert self.planner is not None
        self.planner.set_views(detector.views)
        detector.start()
        return detector

    # ------------------------------------------------------------------
    # fault management
    # ------------------------------------------------------------------

    def _mint_fault_id(self, key: tuple) -> int:
        """New (or still-active) correlation id for the fault at ``key``."""
        active = self._active_fault_ids.get(key)
        if active is not None:
            return active
        fault_id = self._fault_seq
        self._fault_seq += 1
        self._active_fault_ids[key] = fault_id
        return fault_id

    def inject_fault(
        self, lc_id: int, kind: ComponentKind, *, mode: str = "crash"
    ) -> int:
        """Fail one component immediately (tests / fault injector).

        Every activation mints a ``fault_id`` (one per intermittent flap,
        reused if the component is already down) that correlates the
        fault's trace events end to end; ``mode`` labels the taxonomy
        member on the ``fault.injected`` event.  Returns the id.
        """
        unit = self.linecards[lc_id].unit(kind)
        if unit is None:
            raise ValueError(f"{self.mode.value} linecards have no {kind.value}")
        fault_id = self._mint_fault_id((lc_id, kind))
        if _trace.TRACER is not None:
            _trace.TRACER.emit(
                "fault.injected",
                t=self.engine.now,
                fault_id=fault_id,
                lc=lc_id,
                component=kind.value,
                mode=mode,
            )
        unit.fail()
        self.faults.mark_failed(lc_id, kind, fault_id)
        if self.protocol is not None:
            # Health history for the adaptive policy: every activation
            # (including each intermittent flap) is one unit of penalty.
            self.protocol.policy.observe_fault(lc_id, self.engine.now)
        if self.detector is not None:
            self.detector.on_fault(lc_id, kind, fault_id)
        elif self.protocol is not None:
            # Oracle dissemination: every LC learns instantly, so the
            # replanning hook fires once for all observers.
            self.protocol.on_fault_news(None, lc_id, kind, repaired=False)
        if kind is ComponentKind.SRU:
            # Partial packets inside the failed SRU are destroyed; their
            # drop accounting happens through the buffers' abort callbacks.
            self.reassembly[lc_id].flush()
        if self.mode is RouterMode.SPARED and kind is not ComponentKind.PIU:
            self._start_spare_swap(lc_id, kind)
        return fault_id

    def _retire_fault_id(
        self, lc_id: int | None, kind: ComponentKind | None
    ) -> int | None:
        """Pop the active correlation id and emit ``fault.repaired``."""
        key: tuple = ("eib",) if lc_id is None else (lc_id, kind)
        fault_id = self._active_fault_ids.pop(key, None)
        if _trace.TRACER is not None:
            _trace.TRACER.emit(
                "fault.repaired",
                t=self.engine.now,
                fault_id=fault_id,
                lc=lc_id,
                component="eib" if kind is None else kind.value,
            )
        return fault_id

    def repair_fault(self, lc_id: int, kind: ComponentKind) -> int | None:
        """Repair one component (hot-swap) and retire its coverage streams.

        Returns the correlation id of the fault being cleared, if one was
        active.
        """
        unit = self.linecards[lc_id].unit(kind)
        if unit is None:
            raise ValueError(f"{self.mode.value} linecards have no {kind.value}")
        unit.repair()
        fault_id = self._retire_fault_id(lc_id, kind)
        self.faults.mark_repaired(lc_id, kind)
        if self.protocol is not None:
            self.protocol.policy.observe_repair(lc_id, self.engine.now)
        if self.detector is not None:
            self.detector.on_repair(lc_id, kind)
        if self.protocol is not None:
            self.protocol.release_streams_for_fault(lc_id, kind)
            if self.detector is None:
                self.protocol.on_fault_news(None, lc_id, kind, repaired=True)
        return fault_id

    def _start_spare_swap(self, lc_id: int, kind: ComponentKind) -> None:
        """SPARED mode: fail over to a standby card when one remains.

        The LC stays down for ``spare_swap_delay_s`` (route reconvergence
        onto the standby), then returns to service; the consumed spare is
        restocked only by an explicit :meth:`repair_fault` (the hot-swap
        replacement of the broken card).
        """
        if lc_id in self._swapping:
            return
        protocol = self.linecards[lc_id].protocol
        if self.spares.get(protocol, 0) <= 0:
            return  # pool exhausted: the LC stays down until repair
        self.spares[protocol] -= 1
        self._swapping.add(lc_id)

        def complete() -> None:
            self._swapping.discard(lc_id)
            unit = self.linecards[lc_id].unit(kind)
            if unit is not None and not unit.healthy:
                unit.repair()
                self._retire_fault_id(lc_id, kind)
                self.faults.mark_repaired(lc_id, kind)

        self.engine.schedule_in(
            self.config.spare_swap_delay_s, complete, label="spared:swap"
        )

    def restock_spare(self, protocol: Protocol) -> None:
        """Return a replacement standby card to the pool (field service)."""
        if self.mode is not RouterMode.SPARED:
            raise RuntimeError("only SPARED routers hold spare pools")
        self.spares[protocol] = self.spares.get(protocol, 0) + 1

    def fail_fabric_card(self, card_id: int) -> None:
        """Fail a switching-fabric card; the 1:4 spare swaps in when
        available (the Cisco-12000-style sparing the analysis assumes)."""
        self.fabric.fail_card(card_id)

    def repair_fabric_card(self, card_id: int) -> None:
        """Repair a fabric card (returns as standby)."""
        self.fabric.repair_card(card_id)

    def fail_eib(self) -> int:
        """Fail the EIB passive lines (``lam_bus`` event); returns the
        minted fault id."""
        if self.eib is None:
            raise RuntimeError("BDR routers have no EIB")
        fault_id = self._mint_fault_id(("eib",))
        if _trace.TRACER is not None:
            _trace.TRACER.emit(
                "fault.injected",
                t=self.engine.now,
                fault_id=fault_id,
                lc=None,
                component="eib",
                mode="crash",
            )
        self.eib.fail()
        self.faults.eib_healthy = False
        assert self.protocol is not None
        self.protocol.on_eib_failure()
        return fault_id

    def repair_eib(self) -> int | None:
        """Repair the EIB passive lines; returns the cleared fault id."""
        if self.eib is None:
            raise RuntimeError("BDR routers have no EIB")
        self.eib.repair()
        self.faults.eib_healthy = True
        return self._retire_fault_id(None, None)

    # ------------------------------------------------------------------
    # packet pipeline
    # ------------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Offer one packet at its source LC (entry point for traffic)."""
        self.stats.offered += 1
        packet.hop(f"in@LC{packet.src_lc}")
        if self.mode is RouterMode.DRA:
            self._inject_dra(packet)
        else:
            self._inject_bdr(packet)

    # -- BDR: no coverage, an LC fault downs the card ------------------------

    def _inject_bdr(self, packet: Packet) -> None:
        src = self.linecards[packet.src_lc]
        dst = self.linecards[packet.dst_lc]
        if not src.datapath_healthy:
            self._drop(packet, DropReason.BDR_LC_DOWN_IN)
            return
        if not dst.datapath_healthy:
            self._drop(packet, DropReason.BDR_LC_DOWN_OUT)
            return
        now = self.engine.now
        delay = src.piu.serve(packet.size_bytes, now)
        delay += src.sru.serve(packet.size_bytes, now + delay)
        delay += src.lfe.serve(0, now + delay)
        hop = src.table.lookup(packet.dst_addr)
        if hop is None:
            self._drop(packet, DropReason.NO_ROUTE)
            return
        packet.hop(f"lookup@LC{packet.src_lc}->LC{hop}")
        self.engine.schedule_in(
            delay,
            lambda: self._via_fabric(packet, hop, lambda: self._egress_bdr(packet, hop)),
            label="bdr:ingress",
        )

    def _egress_bdr(self, packet: Packet, dst: int) -> None:
        lc = self.linecards[dst]
        if not lc.datapath_healthy:
            self._drop(packet, DropReason.BDR_LC_DOWN_OUT)
            return
        now = self.engine.now
        delay = lc.sru.serve(packet.size_bytes, now)
        delay += lc.piu.serve(packet.size_bytes, now + delay)
        self.engine.schedule_in(delay, lambda: self._deliver(packet, dst), label="bdr:egress")

    # -- DRA: coverage pipeline ------------------------------------------------

    def _inject_dra(self, packet: Packet) -> None:
        assert self.planner is not None
        plan = self.planner.plan(packet)
        if plan.drop is not None:
            self._drop(packet, plan.drop)
            return
        src = self.linecards[packet.src_lc]
        if not src.piu.healthy:
            # With per-LC views the planner can miss even a local PIU
            # fault (self-test latency / imperfect coverage); the stale
            # plan says FABRIC but the hardware is dead.
            self._drop(packet, DropReason.PIU_IN)
            return
        delay = src.piu.serve(packet.size_bytes, self.engine.now)
        self.engine.schedule_in(
            delay, lambda: self._after_piu(packet, plan), label="dra:piu-in"
        )

    def _after_piu(self, packet: Packet, plan: CoveragePlan) -> None:
        if plan.ingress_fault is None:
            self._process_at(packet.src_lc, packet, plan)
            return
        # Case 2: ship the stream over the EIB to a covering LC, which
        # resumes processing at the failed unit's stage.  For an SRU fault
        # the transfer is made by LC_in's *PDLU* ("the PIU (or PDLU) of
        # LC_in transfers the incoming packets"), so the local PDLU still
        # processes the packet first.
        assert self.protocol is not None
        fault = plan.ingress_fault
        key = ("ingress", packet.src_lc, fault)
        src = self.linecards[packet.src_lc]
        if fault is ComponentKind.SRU and src.pdlu is not None:
            if not src.pdlu.healthy:
                self._drop(packet, DropReason.MID_FLIGHT_FAULT)
                return
            delay = src.pdlu.serve(packet.size_bytes, self.engine.now)
            packet.hop(f"pdlu@LC{packet.src_lc}")
            self.engine.schedule_in(
                delay,
                lambda: self._solicit_ingress(packet, plan, key, fault, src),
                label="dra:pdlu-before-eib",
            )
            return
        self._solicit_ingress(packet, plan, key, fault, src)

    def _solicit_ingress(self, packet, plan, key, fault, src) -> None:

        def with_stream(stream: CoverageStream | None) -> None:
            if stream is None:
                self._drop(packet, DropReason.NO_COVERAGE)
                return
            cover = stream.covering_lc
            assert cover is not None
            packet.hop(f"eib:LC{packet.src_lc}->LC{cover}[{fault.value}]")
            sent = self.protocol.send_on_stream(
                stream,
                packet.size_bytes,
                lambda: self._process_at(cover, packet, plan, entry_fault=fault),
                abort=lambda: self._drop(packet, DropReason.EIB_DOWN),
            )
            if not sent:
                self._drop(packet, DropReason.EIB_OVERLOAD)

        self.protocol.ensure_stream(
            key,
            packet.src_lc,
            self._stream_rate(packet.src_lc),
            with_stream,
            fault_kind=fault,
            protocol=src.protocol,
            fault_id=plan.ingress_fault_id,
        )

    def _process_at(
        self,
        lc_id: int,
        packet: Packet,
        plan: CoveragePlan,
        entry_fault: ComponentKind | None = None,
    ) -> None:
        """Protocol + segmentation + lookup processing at ``lc_id``.

        ``entry_fault`` marks which ingress stage failed at the source, so
        a covering LC starts exactly at that stage (PDLU fault -> start at
        its PDLU; SRU fault -> the source PDLU already ran, start at SRU).
        """
        lc = self.linecards[lc_id]
        now = self.engine.now
        delay = 0.0
        if lc.pdlu is not None and entry_fault in (None, ComponentKind.PDLU):
            if not lc.pdlu.healthy:
                self._drop(packet, DropReason.MID_FLIGHT_FAULT)
                return
            delay += lc.pdlu.serve(packet.size_bytes, now)
            packet.hop(f"pdlu@LC{lc_id}")
        if not lc.sru.healthy:
            self._drop(packet, DropReason.MID_FLIGHT_FAULT)
            return
        delay += lc.sru.serve(packet.size_bytes, now + delay)
        packet.hop(f"sru@LC{lc_id}")

        def after_processing() -> None:
            self._do_lookup(lc_id, packet, plan)

        self.engine.schedule_in(delay, after_processing, label="dra:process")

    def _do_lookup(self, lc_id: int, packet: Packet, plan: CoveragePlan) -> None:
        lc = self.linecards[lc_id]
        if plan.remote_lookup and lc_id == packet.src_lc:
            assert self.protocol is not None
            packet.hop(f"req_l@LC{lc_id}")

            def with_result(result: int | None) -> None:
                if result is None:
                    self._drop(packet, DropReason.NO_COVERAGE)
                    return
                packet.hop(f"rep_l->LC{result}")
                self._dispatch_egress(lc_id, packet, plan, result)

            self.protocol.request_lookup(lc_id, packet.dst_addr, with_result)
            return
        if not lc.lfe.healthy:
            self._drop(packet, DropReason.MID_FLIGHT_FAULT)
            return
        lc.lfe.serve(0, self.engine.now)
        hop = lc.table.lookup(packet.dst_addr)
        if hop is None:
            self._drop(packet, DropReason.NO_ROUTE)
            return
        packet.hop(f"lookup@LC{lc_id}->LC{hop}")
        self._dispatch_egress(lc_id, packet, plan, hop)

    def _dispatch_egress(
        self, from_lc: int, packet: Packet, plan: CoveragePlan, dst: int
    ) -> None:
        if plan.egress_mode is EgressMode.FABRIC:
            self._via_fabric(
                packet, dst, lambda: self._egress_fabric(packet, plan, dst),
                from_lc=from_lc,
            )
        elif plan.egress_mode is EgressMode.EIB_DIRECT:
            self._egress_eib_direct(from_lc, packet, plan, dst)
        else:
            self._egress_via_inter(from_lc, packet, plan, dst)

    # -- fabric leg ------------------------------------------------------------

    def _via_fabric(
        self,
        packet: Packet,
        dst: int,
        on_complete,
        from_lc: int | None = None,
    ) -> None:
        cells = segment(packet, dst)
        packet.hop(f"fabric->{dst}[{len(cells)} cells]")
        buffer = self.reassembly[dst]

        def cell_arrived(cell) -> None:
            buffer.add_cell(
                cell,
                on_complete,
                lambda reason: self._drop(packet, f"reassembly_{reason}"),
            )

        # The whole segmented packet enters the fabric as one scheduled
        # unit: one operational check and at most one cell-clock start.
        if not self.fabric.transfer_run(cells, dst, cell_arrived):
            self._drop(packet, DropReason.FABRIC_DOWN)

    def _egress_fabric(self, packet: Packet, plan: CoveragePlan, dst: int) -> None:
        lc = self.linecards[dst]
        if not lc.sru.healthy:
            self._drop(packet, DropReason.MID_FLIGHT_FAULT)
            return
        now = self.engine.now
        delay = lc.sru.serve(packet.size_bytes, now)
        packet.hop(f"sru@LC{dst}")
        if lc.pdlu is not None:
            if not lc.pdlu.healthy:
                self._drop(packet, DropReason.MID_FLIGHT_FAULT)
                return
            delay += lc.pdlu.serve(packet.size_bytes, now + delay)
            packet.hop(f"pdlu@LC{dst}")
        self._finish_at_piu(packet, dst, delay)

    # -- EIB egress legs (Case 3) -----------------------------------------------

    def _egress_eib_direct(
        self, from_lc: int, packet: Packet, plan: CoveragePlan, dst: int
    ) -> None:
        """Whole packet over the EIB straight to the faulty LC_out."""
        assert self.protocol is not None
        key = ("reverse", from_lc, dst)

        def with_stream(stream: CoverageStream | None) -> None:
            if stream is None:
                self._drop(packet, DropReason.NO_COVERAGE)
                return
            packet.hop(f"eib:LC{from_lc}->LC{dst}[direct]")
            sent = self.protocol.send_on_stream(
                stream,
                packet.size_bytes,
                lambda: self._egress_after_eib(packet, plan, dst),
                abort=lambda: self._drop(packet, DropReason.EIB_DOWN),
            )
            if not sent:
                self._drop(packet, DropReason.EIB_OVERLOAD)

        self.protocol.ensure_stream(
            key,
            from_lc,
            self._stream_rate(packet.src_lc),
            with_stream,
            rec_lc=dst,
            fault_id=plan.egress_fault_id,
        )

    def _egress_via_inter(
        self, from_lc: int, packet: Packet, plan: CoveragePlan, dst: int
    ) -> None:
        """Fabric to a same-protocol LC_inter, which finishes processing
        and relays the packet over the EIB to LC_out's PIU."""
        assert self.protocol is not None
        key = ("egress", dst, ComponentKind.PDLU)
        dst_protocol = self.linecards[dst].protocol

        def with_stream(stream: CoverageStream | None) -> None:
            if stream is None:
                self._drop(packet, DropReason.NO_COVERAGE)
                return
            inter = stream.covering_lc
            assert inter is not None

            def at_inter() -> None:
                lc = self.linecards[inter]
                if not (lc.sru.healthy and lc.pdlu is not None and lc.pdlu.healthy):
                    self._drop(packet, DropReason.MID_FLIGHT_FAULT)
                    return
                now = self.engine.now
                delay = lc.sru.serve(packet.size_bytes, now)
                delay += lc.pdlu.serve(packet.size_bytes, now + delay)
                packet.hop(f"inter@LC{inter}")

                def relay() -> None:
                    sent = self.protocol.send_on_stream(
                        stream,
                        packet.size_bytes,
                        lambda: self._egress_after_eib(packet, plan, dst),
                        abort=lambda: self._drop(packet, DropReason.EIB_DOWN),
                    )
                    if sent:
                        packet.hop(f"eib:LC{inter}->LC{dst}[inter]")
                    else:
                        self._drop(packet, DropReason.EIB_OVERLOAD)

                self.engine.schedule_in(delay, relay, label="dra:inter")

            self._via_fabric(packet, inter, at_inter, from_lc=from_lc)

        self.protocol.ensure_stream(
            key,
            from_lc,
            self._stream_rate(packet.src_lc),
            with_stream,
            fault_kind=ComponentKind.PDLU,
            protocol=dst_protocol,
            sender_is_coverer=True,
            fault_id=plan.egress_fault_id,
        )

    def _egress_after_eib(self, packet: Packet, plan: CoveragePlan, dst: int) -> None:
        """Arrival at LC_out over the EIB, entering past the failed unit."""
        lc = self.linecards[dst]
        delay = 0.0
        if plan.egress_fault is ComponentKind.SRU:
            # SRU bypassed; the (healthy) PDLU still runs.
            if lc.pdlu is not None:
                if not lc.pdlu.healthy:
                    self._drop(packet, DropReason.MID_FLIGHT_FAULT)
                    return
                delay += lc.pdlu.serve(packet.size_bytes, self.engine.now + delay)
                packet.hop(f"pdlu@LC{dst}")
        self._finish_at_piu(packet, dst, delay)

    def _finish_at_piu(self, packet: Packet, dst: int, extra_delay: float) -> None:
        lc = self.linecards[dst]
        if not lc.piu.healthy:
            self._drop(packet, DropReason.PIU_OUT)
            return
        delay = extra_delay + lc.piu.serve(
            packet.size_bytes, self.engine.now + extra_delay
        )
        self.engine.schedule_in(
            delay, lambda: self._deliver(packet, dst), label="dra:piu-out"
        )

    # -- terminal states ---------------------------------------------------------

    def _deliver(self, packet: Packet, dst: int) -> None:
        if packet.terminated:
            # e.g. straggler fabric cells completed a reassembly that a
            # flush already aborted; the packet was counted as dropped.
            return
        packet.terminated = True
        packet.delivered_at = self.engine.now
        packet.hop(f"out@LC{dst}")
        self.stats.delivered += 1
        self.stats.delivered_by_lc[dst] += 1
        self.stats.delivered_bytes_by_ingress[packet.src_lc] += packet.size_bytes
        self.stats.latency.add(packet.latency or 0.0)
        if any(h.startswith("eib:") or h.startswith("req_l") for h in packet.path):
            self.stats.covered_deliveries += 1

    def _drop(self, packet: Packet, reason: str) -> None:
        if packet.terminated:
            # A packet dies only once: a reassembly flush followed by the
            # straggler cells' timeout (or a mid-transfer fabric drop plus
            # the cells already in flight) must not inflate the drop count.
            return
        packet.terminated = True
        packet.hop(f"drop:{reason}")
        self.stats.drop(reason)
        if _trace.TRACER is not None:
            _trace.TRACER.emit(
                "router.packet_drop",
                t=self.engine.now,
                pkt_id=packet.pkt_id,
                src_lc=packet.src_lc,
                dst_lc=packet.dst_lc,
                reason=reason,
            )
