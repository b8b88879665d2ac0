"""Switching-fabric tests: transfer, queueing, card sparing, drops."""

import pytest

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.router.fabric import SwitchFabric
from repro.router.packets import Cell
from repro.sim import Engine
from repro.validate.oracles import scalar_cell_clock


def cell(dst=1, pkt=1, seq=0, total=1):
    return Cell(pkt_id=pkt, seq=seq, total=total, payload_bytes=48, dst_lc=dst)


@pytest.fixture(params=["batched", "scalar"])
def dispatch(request):
    """Run the test on the burst clock and on the per-cell oracle."""
    if request.param == "batched":
        yield
    else:
        with scalar_cell_clock():
            yield


class TestTransfer:
    def test_cell_delivered_after_serialization(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        got = []
        assert fabric.transfer(cell(), 1, lambda c: got.append((eng.now, c)))
        eng.run()
        assert len(got) == 1
        assert got[0][0] == pytest.approx(1e-6)

    def test_fifo_order_per_port(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        got = []
        for seq in range(3):
            fabric.transfer(cell(seq=seq, total=3), 1, lambda c: got.append(c.seq))
        eng.run()
        assert got == [0, 1, 2]

    def test_ports_drain_independently(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        times = {}
        fabric.transfer(cell(dst=1), 1, lambda c: times.setdefault(1, eng.now))
        fabric.transfer(cell(dst=2), 2, lambda c: times.setdefault(2, eng.now))
        eng.run()
        # No cross-port queueing: both arrive after one serialization time.
        assert times[1] == pytest.approx(times[2])

    def test_queue_depth(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        for _ in range(5):
            fabric.transfer(cell(), 1, lambda c: None)
        assert fabric.queue_depth(1) >= 3  # one in service, rest queued

    def test_invalid_port_rejected(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        with pytest.raises(ValueError, match="port"):
            fabric.transfer(cell(), 9, lambda c: None)

    def test_delivered_counter(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        fabric.transfer(cell(), 2, lambda c: None)
        eng.run()
        assert fabric.delivered_cells(2) == 1


class TestTransferRun:
    def test_run_delivers_every_cell_in_order(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        got = []
        cells = [cell(seq=s, total=4) for s in range(4)]
        assert fabric.transfer_run(cells, 1, lambda c: got.append((c.seq, eng.now)))
        eng.run()
        assert [s for s, _ in got] == [0, 1, 2, 3]
        assert [t for _, t in got] == pytest.approx(
            [1e-6, 2e-6, 3e-6, 4e-6]
        )

    def test_run_matches_per_cell_transfers(self, dispatch):
        def deliveries(use_run: bool):
            eng = Engine()
            fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
            got = []
            cells = [cell(seq=s, total=3) for s in range(3)]
            if use_run:
                fabric.transfer_run(cells, 1, lambda c: got.append((c.seq, eng.now)))
            else:
                for c in cells:
                    fabric.transfer(c, 1, lambda c: got.append((c.seq, eng.now)))
            eng.run()
            return got

        assert deliveries(True) == deliveries(False)

    def test_empty_run_is_a_noop(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        assert fabric.transfer_run([], 1, lambda c: None)
        assert fabric.queue_depth(1) == 0
        eng.run()
        assert fabric.delivered_cells(1) == 0

    def test_dead_fabric_refuses_run(self, dispatch):
        fabric = SwitchFabric(Engine(), 4)
        for i in range(5):
            fabric.fail_card(i)
        assert not fabric.transfer_run([cell()], 1, lambda c: None)

    def test_out_of_range_port_rejected(self, dispatch):
        fabric = SwitchFabric(Engine(), 4)
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="port"):
                fabric.transfer_run([cell()], bad, lambda c: None)


class TestCardSparing:
    def test_initial_complement(self):
        fabric = SwitchFabric(Engine(), 4)
        active = [c for c in fabric.cards if c.active]
        assert len(active) == 4
        assert len(fabric.cards) == 5
        assert fabric.active_fraction == 1.0

    def test_spare_swaps_in_on_failure(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)
        assert fabric.active_fraction == 1.0  # 1:4 redundancy absorbed it
        assert fabric.swaps == 1

    def test_second_failure_degrades(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)
        fabric.fail_card(1)
        assert fabric.active_fraction == pytest.approx(0.75)
        assert fabric.operational

    def test_total_loss(self):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        for i in range(5):
            fabric.fail_card(i)
        assert not fabric.operational
        assert not fabric.transfer(cell(), 1, lambda c: None)

    def test_repair_returns_as_standby(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)  # spare replaces it
        fabric.repair_card(0)
        # Complement already full: the repaired card waits as standby.
        active = [c.card_id for c in fabric.cards if c.active]
        assert len(active) == 4
        assert 0 not in active

    def test_repair_promotes_when_capacity_short(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)
        fabric.fail_card(1)  # degraded to 3/4
        fabric.repair_card(0)
        assert fabric.active_fraction == 1.0

    def test_degraded_rate_slows_delivery(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        fabric.fail_card(0)
        fabric.fail_card(1)  # active fraction 0.75
        got = []
        fabric.transfer(cell(), 1, lambda c: got.append(eng.now))
        eng.run()
        assert got[0] == pytest.approx(1e-6 / 0.75)

    def test_invalid_complement_rejected(self):
        with pytest.raises(ValueError):
            SwitchFabric(Engine(), 4, n_active_cards=0)
        with pytest.raises(ValueError):
            SwitchFabric(Engine(), 0)


class TestSparingEdgeCases:
    def test_spare_promotion_is_lowest_id_first(self):
        # Two spares standing by (ids 2, 3): failing an active card must
        # promote the lowest-id healthy standby, not an arbitrary one.
        fabric = SwitchFabric(Engine(), 4, n_active_cards=2, n_spare_cards=2)
        assert [c.card_id for c in fabric.cards if c.active] == [0, 1]
        fabric.fail_card(0)
        assert [c.card_id for c in fabric.cards if c.active] == [1, 2]
        fabric.fail_card(1)
        assert [c.card_id for c in fabric.cards if c.active] == [2, 3]
        assert fabric.swaps == 2
        assert fabric.active_fraction == 1.0

    def test_repaired_card_stands_by_until_next_failure(self):
        fabric = SwitchFabric(Engine(), 4)
        fabric.fail_card(0)
        fabric.repair_card(0)  # complement full: card 0 waits as standby
        fabric.fail_card(1)
        # The standby (card 0) is the one promoted for the new failure.
        active = [c.card_id for c in fabric.cards if c.active]
        assert 0 in active and 1 not in active
        assert fabric.active_fraction == 1.0

    def test_active_fraction_clamped_at_one(self):
        # Force more healthy-active cards than the requirement (a state
        # no public transition produces): the fraction must clamp at 1.0
        # so the port rate never exceeds its nominal value.
        fabric = SwitchFabric(Engine(), 4)
        for card in fabric.cards:
            card.active = True  # all 5 of 4-required active
        assert fabric.active_fraction == 1.0

    def test_transfer_to_negative_port_rejected(self):
        fabric = SwitchFabric(Engine(), 4)
        with pytest.raises(ValueError, match="port"):
            fabric.transfer(cell(), -1, lambda c: None)


class TestDropAccounting:
    def _kill_all(self, fabric):
        for i in range(len(fabric.cards)):
            fabric.fail_card(i)

    def test_conservation_when_fabric_dies_mid_flight(self, dispatch):
        # 20 cells at 1 us each; the fabric dies at t=5.5 us.  The cell
        # in service still lands (t=6 us), the other 14 are dropped --
        # and every one of the 20 is accounted: delivered + dropped.
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        got = []
        cells = [cell(seq=s, total=20) for s in range(20)]
        fabric.transfer_run(cells, 1, lambda c: got.append(eng.now))
        eng.schedule(5.5e-6, lambda: self._kill_all(fabric))
        eng.run()
        assert len(got) == 6
        assert got[-1] == pytest.approx(6e-6)
        assert fabric.delivered_cells(1) == 6
        assert fabric.dropped_cells(1) == 14
        assert fabric.delivered_cells(1) + fabric.dropped_cells(1) == 20
        assert fabric.queue_depth(1) == 0

    def test_drop_emits_metric_and_trace_event(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4, port_rate_cells_per_s=1e6)
        cells = [cell(seq=s, total=10) for s in range(10)]
        fabric.transfer_run(cells, 2, lambda c: None)
        eng.schedule(2.5e-6, lambda: self._kill_all(fabric))
        tracer = _trace.Tracer(path=None)
        with _metrics.collecting() as registry, _trace.tracing(tracer):
            eng.run()
        assert registry.counter("fabric.cells_dropped").value == 7
        drops = [ev for ev in tracer.events if ev.kind == "fabric.drop"]
        assert len(drops) == 1
        assert drops[0].data == {"port": 2, "cells": 7}
        assert drops[0].t == pytest.approx(3e-6)

    def test_new_transfers_refused_after_death(self, dispatch):
        eng = Engine()
        fabric = SwitchFabric(eng, 4)
        fabric.transfer(cell(), 1, lambda c: None)
        self._kill_all(fabric)
        assert not fabric.transfer(cell(), 1, lambda c: None)
        eng.run()
        assert fabric.delivered_cells(1) + fabric.dropped_cells(1) == 1
