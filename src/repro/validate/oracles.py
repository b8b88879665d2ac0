"""Scalar reference oracles for the batched production kernels.

Each hot kernel runs one batched path in production; its original
one-item-at-a-time loop lives here, as the reference that tests, CI and
the ``bench --suite throughput`` speedup metrics compare against.  The
cell clock and the lifetime sampler are bit-identical to production;
the trajectory and cycle loops consume the RNG stream in another order,
so they agree statistically.  Production modules never import this one.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.core.parameters import DRAConfig, FailureRates
from repro.markov.ctmc import CTMC
from repro.montecarlo.ctmc_mc import _JumpSampler, sample_trajectory
from repro.montecarlo.importance import (
    CycleStatistics,
    _cycle_setup,
    _cycle_statistics,
    _Rows,
)
from repro.montecarlo.lifetime import _component_lifetimes
from repro.router.fabric import SwitchFabric

__all__ = [
    "collect_cycle_statistics_scalar",
    "empirical_availability_scalar",
    "empirical_state_probabilities_scalar",
    "sample_lc_failure_times_scalar",
    "scalar_cell_clock",
]


def _drain(fabric: SwitchFabric, port_idx: int) -> None:
    """Serve the head cell of a port, then reschedule for the next one."""
    port = fabric._ports[port_idx]
    if not port.queue:
        port.busy = False
        return
    port.busy = True
    rate = fabric._rate * fabric._fraction
    if rate <= 0.0:
        # Fabric died with cells in flight: the queue is dropped,
        # with the loss accounted (metric, trace event, counters).
        fabric._drop_queue(port_idx)
        return
    cell, callback = port.queue.popleft()

    def finish() -> None:
        port.delivered_cells += 1
        callback(cell)
        _drain(fabric, port_idx)

    fabric._engine.schedule_in(1.0 / rate, finish, label=f"fabric:port{port_idx}")


@contextmanager
def scalar_cell_clock() -> Iterator[None]:
    """Run every :class:`SwitchFabric` on the per-cell reference clock.

    While active, a port starts its clock by scheduling one heap event
    per cell instead of one burst run, for bare fabrics, routers and
    whole chaos campaigns alike; the burst clock is restored on exit,
    also on error.  Delivery timestamps, trace events (``sim.fire``
    sequence numbers included), drop accounting and counters are
    bit-identical to the burst clock.  The one observable difference is
    queue accounting: this clock holds the in-service cell outside the
    queue, while the burst clock pops at delivery, so ``queue_depth``
    can differ by one mid-flight.

    The patch is process-local: run campaigns under it with ``jobs=1``.
    """
    start_run = SwitchFabric._start_run
    SwitchFabric._start_run = _drain
    try:
        yield
    finally:
        SwitchFabric._start_run = start_run


def sample_lc_failure_times_scalar(
    config: DRAConfig,
    n_samples: int,
    rng: np.random.Generator,
    rates: FailureRates | None = None,
) -> np.ndarray:
    """Per-sample reference for
    :func:`repro.montecarlo.sample_lc_failure_times` (bit-identical)."""
    t_lpi, t_lpd, t_bus, t_bc, t_pi, t_pd = _component_lifetimes(
        config, n_samples, rng, rates
    )
    out = np.empty(n_samples)
    for s in range(n_samples):
        bus_path = max(min(t_bus[s], t_bc[s]), min(t_lpi[s], t_lpd[s]))
        if t_lpi[s] < t_lpd[s]:
            unit_path = max(t_lpi[s], t_pi[s].max())
        else:
            unit_path = max(t_lpd[s], t_pd[s].max())
        out[s] = min(bus_path, unit_path)
    return out


def empirical_state_probabilities_scalar(
    chain: CTMC,
    times: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    *,
    initial_state: int = 0,
) -> np.ndarray:
    """Per-trajectory reference for
    :func:`repro.montecarlo.empirical_state_probabilities`."""
    times = np.asarray(times, dtype=np.float64)
    sampler = _JumpSampler(chain)
    horizon = float(times.max()) if times.size else 0.0
    counts = np.zeros((times.size, chain.n_states))
    for _ in range(n_samples):
        traj = sample_trajectory(
            chain, horizon, rng, initial_state=initial_state, _sampler=sampler
        )
        idx = np.searchsorted(traj.times, times, side="right") - 1
        occupied = traj.states[np.maximum(idx, 0)]
        counts[np.arange(times.size), occupied] += 1.0
    return counts / n_samples


def empirical_availability_scalar(
    chain: CTMC,
    failed_index: int,
    horizon: float,
    n_samples: int,
    rng: np.random.Generator,
    *,
    initial_state: int = 0,
    warmup_fraction: float = 0.1,
) -> tuple[float, float]:
    """Per-trajectory reference for
    :func:`repro.montecarlo.empirical_availability`."""
    sampler = _JumpSampler(chain)
    warmup = horizon * warmup_fraction
    window = horizon - warmup
    fractions = np.empty(n_samples)
    for s in range(n_samples):
        traj = sample_trajectory(
            chain, horizon, rng, initial_state=initial_state, _sampler=sampler
        )
        # Accumulate downtime within (warmup, horizon].
        exit_ = np.append(traj.times[1:], horizon)
        down = 0.0
        for st, t0, t1 in zip(traj.states, traj.times, exit_):
            if st == failed_index:
                down += max(0.0, min(t1, horizon) - max(t0, warmup))
        fractions[s] = 1.0 - down / window
    est = float(fractions.mean())
    se = float(fractions.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return est, se


def _plain_cycle_length(
    rows: _Rows, regen: int, rng: np.random.Generator, max_jumps: int
) -> float:
    t = 0.0
    i = regen
    for _ in range(max_jumps):
        t += rng.exponential(1.0 / rows.exit[i])
        cp = np.cumsum(rows.probs[i])
        i = int(rows.targets[i][np.searchsorted(cp, rng.random(), side="right")])
        if i == regen:
            return t
    raise RuntimeError("cycle did not regenerate within max_jumps")


def _biased_cycle_downtime(
    rows: _Rows,
    regen: int,
    failed: int,
    rng: np.random.Generator,
    max_jumps: int,
) -> tuple[float, bool]:
    """One biased cycle: (likelihood-weighted downtime, hit indicator)."""
    downtime = 0.0
    weight = 1.0
    hit = False
    i = regen
    for _ in range(max_jumps):
        dwell = rng.exponential(1.0 / rows.exit[i])
        if i == failed:
            downtime += dwell
            hit = True
        probs = rows.probs[i]
        biased = rows.biased[i]
        cp = np.cumsum(biased)
        k = int(np.searchsorted(cp, rng.random(), side="right"))
        k = min(k, probs.size - 1)
        weight *= probs[k] / biased[k]
        i = int(rows.targets[i][k])
        if i == regen:
            return downtime * weight, hit
    raise RuntimeError("biased cycle did not regenerate within max_jumps")


def collect_cycle_statistics_scalar(
    chain: CTMC,
    failed_state: object,
    n_cycles: int,
    rng: np.random.Generator,
    *,
    regeneration_state: object | None = None,
    bias: float = 0.5,
    repair_threshold: float = 100.0,
    max_jumps_per_cycle: int = 100_000,
) -> CycleStatistics:
    """Per-jump reference for
    :func:`repro.montecarlo.collect_cycle_statistics`."""
    rows, regen, failed, n_plain, n_biased = _cycle_setup(
        chain, failed_state, n_cycles, regeneration_state, bias, repair_threshold
    )
    # --- denominator: E[cycle length], plain simulation -------------------
    lengths = np.empty(n_plain)
    for c in range(n_plain):
        lengths[c] = _plain_cycle_length(rows, regen, rng, max_jumps_per_cycle)

    # --- numerator: E[downtime per cycle], biased + reweighted -------------
    downtimes = np.empty(n_biased)
    hit_flags = np.empty(n_biased, dtype=bool)
    for c in range(n_biased):
        downtimes[c], hit_flags[c] = _biased_cycle_downtime(
            rows, regen, failed, rng, max_jumps_per_cycle
        )
    return _cycle_statistics(chain, bias, lengths, downtimes, hit_flags)
