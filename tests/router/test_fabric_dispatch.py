"""Burst cell clock vs its per-cell reference oracle.

The contract (docs/performance.md): the fabric's burst clock must be
*event-content bit-identical* to
:func:`repro.validate.oracles.scalar_cell_clock` -- same
delivery timestamps to the ulp, same trace events (including the
engine's per-event ``sim.fire`` stream and its sequence numbers), same
counters -- on any seeded workload.  Three layers of evidence:

1. a seed x jobs matrix of full chaos campaigns whose JSON reports must
   match exactly (both coverage policies; the oracle side runs serially,
   since its clock patch is process-local);
2. full in-memory traces of a replayed schedule compared event by event;
3. hypothesis property tests driving a bare fabric with random cell runs
   and mid-burst ``fail_card``/``repair_card`` churn, asserting exact
   (``==``, not approx) equality of every delivery tuple.
"""

import contextlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import CampaignConfig, _simulate, run_campaign
from repro.obs import trace as _trace
from repro.router import packets as _packets
from repro.router.fabric import SwitchFabric
from repro.router.packets import Cell
from repro.sim import Engine
from repro.validate.oracles import scalar_cell_clock


def _clock(dispatch: str):
    """The burst clock as is, or the per-cell oracle patched in."""
    return scalar_cell_clock() if dispatch == "scalar" else contextlib.nullcontext()


def _campaign_json(base_seed: int, jobs: int, policy: str) -> str:
    cfg = CampaignConfig(
        seeds=2,
        base_seed=base_seed,
        duration_s=0.002,
        drain_s=0.012,
        coverage_policy=policy,
    )
    return json.dumps(run_campaign(cfg, jobs=jobs), sort_keys=True)


def _oracle_campaign_json(base_seed: int, policy: str) -> str:
    with scalar_cell_clock():
        return _campaign_json(base_seed, 1, policy)


class TestCampaignBitIdentity:
    @pytest.mark.parametrize("base_seed", [0, 1, 12345])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_seed_matrix(self, base_seed, jobs):
        # The full report, config included, must match byte for byte.
        batched = _campaign_json(base_seed, jobs, "static")
        assert batched == _oracle_campaign_json(base_seed, "static")

    def test_adaptive_policy(self):
        batched = _campaign_json(0, 1, "adaptive")
        assert batched == _oracle_campaign_json(0, "adaptive")


class TestTraceBitIdentity:
    def _capture(self, dispatch: str) -> list[tuple]:
        cfg = CampaignConfig(seeds=1, base_seed=7, duration_s=0.002, drain_s=0.012)
        # Packet ids come from a process-global counter; restart it so
        # the two captures mint identical ids for identical packets.
        _packets._packet_ids = itertools.count()
        tracer = _trace.Tracer(path=None)
        previous = _trace.TRACER
        _trace.set_tracer(tracer)
        try:
            with _clock(dispatch):
                _simulate(cfg, 0)
        finally:
            _trace.set_tracer(previous)
        return [(ev.seq, ev.t, ev.kind, ev.data) for ev in tracer.events]

    def test_full_traces_match_including_event_seqs(self):
        batched = self._capture("batched")
        scalar = self._capture("scalar")
        assert len(batched) == len(scalar)
        # Event-by-event: timestamps to the ulp, kinds, payloads, and the
        # engine's sequence numbers -- the strongest equivalence surface
        # the instrumentation exposes.
        assert batched == scalar


# One fabric "script": cell runs landing at random instants on random
# ports, interleaved with card fail/repair operations.
_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30e-6, allow_nan=False),
        st.sampled_from(["run", "fail", "repair"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=24),
    ),
    min_size=1,
    max_size=16,
)


def _drive(ops, dispatch: str):
    """Run one scripted workload; return every observable outcome."""
    eng = Engine()
    fabric = SwitchFabric(eng, 2, port_rate_cells_per_s=1e6)
    deliveries: list[tuple] = []

    def schedule_op(t, kind, card, n_cells, port):
        if kind == "run":
            cells = [
                Cell(pkt_id=0, seq=s, total=n_cells, payload_bytes=48, dst_lc=port)
                for s in range(n_cells)
            ]

            def inject():
                fabric.transfer_run(
                    cells,
                    port,
                    lambda c: deliveries.append((port, c.seq, eng.now)),
                )

            eng.schedule(t, inject)
        elif kind == "fail":
            eng.schedule(t, lambda: fabric.fail_card(card))
        else:
            eng.schedule(t, lambda: fabric.repair_card(card))

    for i, (t, kind, card, n_cells) in enumerate(ops):
        schedule_op(t, kind, card, n_cells, port=i % 2)
    with _clock(dispatch):
        eng.run()
    return (
        deliveries,
        [fabric.delivered_cells(p) for p in range(2)],
        [fabric.dropped_cells(p) for p in range(2)],
        eng.now,
        eng.events_processed,
    )


class TestBurstSplitProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops)
    def test_random_churn_is_bit_identical(self, ops):
        # Exact tuple equality: delivery timestamps under mid-burst rate
        # changes must match the scalar clock to the ulp, and so must the
        # conservation counters and the engine's event totals.
        assert _drive(ops, "batched") == _drive(ops, "scalar")

    def test_mid_burst_degradation_splits_at_exact_boundary(self):
        # Deterministic split check: 4 cells at 1 us, degraded to 0.75 of
        # the rate after the second delivery -- the remaining gaps widen
        # to exactly 1/0.75 us from that boundary on, in both modes.
        for dispatch in ("batched", "scalar"):
            eng = Engine()
            fabric = SwitchFabric(eng, 2, port_rate_cells_per_s=1e6)
            times = []
            cells = [
                Cell(pkt_id=0, seq=s, total=4, payload_bytes=48, dst_lc=0)
                for s in range(4)
            ]
            with _clock(dispatch):
                fabric.transfer_run(cells, 0, lambda c: times.append(eng.now))
                eng.schedule(
                    2.5e-6, lambda f=fabric: (f.fail_card(0), f.fail_card(1))
                )
                eng.run()
            assert times[:2] == [1e-6, 2e-6]
            t2 = 2e-6 + 1e-6  # third boundary, full-rate float arithmetic
            slow = 1.0 / (1e6 * 0.75)
            assert times[2] == t2  # already in service at the old rate
            assert times[3] == t2 + slow
