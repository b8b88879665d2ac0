"""Fault-map and coverage-planner tests (Section 3.2 case logic)."""


from repro.router.components import ComponentKind
from repro.router.linecard import Linecard
from repro.router.packets import Packet, Protocol
from repro.router.recovery import (
    CoveragePlanner,
    DropReason,
    EgressMode,
    FaultMap,
)


def make_lcs(n=6, protocols=(Protocol.ETHERNET,)):
    return {
        i: Linecard(i, protocols[i % len(protocols)], dra=True) for i in range(n)
    }


def pkt(src=0, dst=1):
    return Packet(src, dst, 0x0A000001, 500, Protocol.ETHERNET, 0.0)


class TestFaultMap:
    def test_mark_and_query(self):
        fm = FaultMap()
        fm.mark_failed(2, ComponentKind.SRU)
        assert fm.is_failed(2, ComponentKind.SRU)
        assert fm.failed_at(2) == {ComponentKind.SRU}
        assert fm.any_failed(2)
        assert not fm.any_failed(3)

    def test_repair_clears(self):
        fm = FaultMap()
        fm.mark_failed(2, ComponentKind.SRU)
        fm.mark_repaired(2, ComponentKind.SRU)
        assert not fm.any_failed(2)

    def test_repair_of_healthy_is_noop(self):
        fm = FaultMap()
        fm.mark_repaired(1, ComponentKind.LFE)
        assert not fm.any_failed(1)


class TestPlannerHealthy:
    def test_no_faults_plain_fabric(self):
        planner = CoveragePlanner(make_lcs(), FaultMap())
        plan = planner.plan(pkt())
        assert plan.drop is None
        assert plan.egress_mode is EgressMode.FABRIC
        assert not plan.uses_eib


class TestPlannerIngress:
    def test_pdlu_fault_covered(self):
        fm = FaultMap()
        fm.mark_failed(0, ComponentKind.PDLU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(src=0))
        assert plan.ingress_fault is ComponentKind.PDLU
        assert plan.uses_eib

    def test_sru_fault_covered(self):
        fm = FaultMap()
        fm.mark_failed(0, ComponentKind.SRU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(src=0))
        assert plan.ingress_fault is ComponentKind.SRU

    def test_lone_lfe_fault_uses_remote_lookup(self):
        fm = FaultMap()
        fm.mark_failed(0, ComponentKind.LFE)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(src=0))
        assert plan.remote_lookup
        assert plan.ingress_fault is None

    def test_sru_plus_lfe_covered_by_one_stream(self):
        """SRU coverage subsumes the lookup; no separate REQ_L needed."""
        fm = FaultMap()
        fm.mark_failed(0, ComponentKind.SRU)
        fm.mark_failed(0, ComponentKind.LFE)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(src=0))
        assert plan.ingress_fault is ComponentKind.SRU
        assert not plan.remote_lookup

    def test_piu_fault_drops(self):
        fm = FaultMap()
        fm.mark_failed(0, ComponentKind.PIU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(src=0))
        assert plan.drop == DropReason.PIU_IN


class TestPlannerEgress:
    def test_dst_piu_fault_drops(self):
        fm = FaultMap()
        fm.mark_failed(1, ComponentKind.PIU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(dst=1))
        assert plan.drop == DropReason.PIU_OUT

    def test_dst_sru_fault_goes_direct(self):
        fm = FaultMap()
        fm.mark_failed(1, ComponentKind.SRU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(dst=1))
        assert plan.egress_mode is EgressMode.EIB_DIRECT
        assert plan.egress_fault is ComponentKind.SRU

    def test_dst_pdlu_same_protocol_goes_direct(self):
        fm = FaultMap()
        fm.mark_failed(1, ComponentKind.PDLU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(dst=1))
        assert plan.egress_mode is EgressMode.EIB_DIRECT
        assert plan.egress_fault is ComponentKind.PDLU

    def test_dst_pdlu_different_protocol_via_inter(self):
        lcs = make_lcs(protocols=(Protocol.ETHERNET, Protocol.SONET_POS))
        fm = FaultMap()
        fm.mark_failed(1, ComponentKind.PDLU)  # LC1 is SONET; LC0 Ethernet
        plan = CoveragePlanner(lcs, fm).plan(pkt(src=0, dst=1))
        assert plan.egress_mode is EgressMode.EIB_VIA_INTER

    def test_dst_lfe_fault_is_harmless(self):
        fm = FaultMap()
        fm.mark_failed(1, ComponentKind.LFE)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(dst=1))
        assert plan.egress_mode is EgressMode.FABRIC
        assert plan.drop is None


class TestPlannerCompound:
    def test_dst_sru_and_pdlu_drops(self):
        fm = FaultMap()
        fm.mark_failed(1, ComponentKind.SRU)
        fm.mark_failed(1, ComponentKind.PDLU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(dst=1))
        assert plan.drop == DropReason.COMPOUND_FAULT

    def test_ingress_coverage_plus_eib_egress_drops(self):
        fm = FaultMap()
        fm.mark_failed(0, ComponentKind.SRU)
        fm.mark_failed(1, ComponentKind.SRU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(src=0, dst=1))
        assert plan.drop == DropReason.COMPOUND_FAULT

    def test_src_pdlu_fault_with_dst_pdlu_fault_same_protocol(self):
        """Source cannot take the direct alternative with its own PDLU
        down; the via-inter route applies but would chain -- drop."""
        fm = FaultMap()
        fm.mark_failed(0, ComponentKind.PDLU)
        fm.mark_failed(1, ComponentKind.PDLU)
        plan = CoveragePlanner(make_lcs(), fm).plan(pkt(src=0, dst=1))
        assert plan.drop == DropReason.COMPOUND_FAULT


class TestCandidates:
    def test_ingress_candidates_exclude_endpoints(self):
        lcs = make_lcs()
        planner = CoveragePlanner(lcs, FaultMap())
        cands = planner.ingress_candidates(pkt(src=0, dst=1), ComponentKind.SRU, 1e9)
        assert 0 not in cands and 1 not in cands
        assert set(cands) == {2, 3, 4, 5}

    def test_ingress_candidates_respect_protocol(self):
        lcs = make_lcs(protocols=(Protocol.ETHERNET, Protocol.SONET_POS))
        planner = CoveragePlanner(lcs, FaultMap())
        cands = planner.ingress_candidates(pkt(src=0, dst=1), ComponentKind.PDLU, 1e9)
        # Only even LCs run Ethernet, and 0 (src) is excluded.
        assert set(cands) == {2, 4}

    def test_egress_inter_candidates_match_dst_protocol(self):
        lcs = make_lcs(protocols=(Protocol.ETHERNET, Protocol.SONET_POS))
        planner = CoveragePlanner(lcs, FaultMap())
        cands = planner.egress_inter_candidates(pkt(src=0, dst=1), 1e9)
        # Must run SONET (dst protocol): LCs 3, 5 (1 is the dst).
        assert set(cands) == {3, 5}

    def test_unhealthy_candidates_filtered(self):
        lcs = make_lcs()
        lcs[2].sru.fail()
        lcs[3].bus_controller.fail()
        planner = CoveragePlanner(lcs, FaultMap())
        cands = planner.ingress_candidates(pkt(src=0, dst=1), ComponentKind.SRU, 1e9)
        assert set(cands) == {4, 5}

    def test_candidates_sorted_regardless_of_dict_order(self):
        # DRA503 spirit: candidate ranking must not depend on the
        # construction order of the linecard dict.
        reversed_lcs = dict(sorted(make_lcs().items(), reverse=True))
        planner = CoveragePlanner(reversed_lcs, FaultMap())
        ing = planner.ingress_candidates(pkt(src=0, dst=1), ComponentKind.SRU, 1e9)
        egr = planner.egress_inter_candidates(pkt(src=0, dst=1), 1e9)
        assert ing == sorted(ing) == [2, 3, 4, 5]
        assert egr == sorted(egr) == [2, 3, 4, 5]


class TestFaultMapHygiene:
    def test_mark_repaired_prunes_empty_entries(self):
        fm = FaultMap()
        fm.mark_failed(3, ComponentKind.SRU)
        fm.mark_repaired(3, ComponentKind.SRU)
        # Regression: the empty set() used to linger, making any_failed
        # scans and compactness checks see ghost entries.
        assert fm.active_faults() == {}
        assert fm.is_compact()
        assert not fm.any_failed(3)

    def test_partial_repair_keeps_entry(self):
        fm = FaultMap()
        fm.mark_failed(3, ComponentKind.SRU)
        fm.mark_failed(3, ComponentKind.LFE)
        fm.mark_repaired(3, ComponentKind.SRU)
        assert fm.active_faults() == {3: {ComponentKind.LFE}}
        assert fm.is_compact()
