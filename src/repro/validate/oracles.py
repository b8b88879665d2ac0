"""Reference oracles for the production kernels and solvers.

Each hot kernel runs one batched path in production; its original
one-item-at-a-time loop lives here, as the reference that tests, CI and
the ``bench --suite throughput`` speedup metrics compare against.  The
cell clock and the lifetime sampler are bit-identical to production;
the trajectory and cycle loops consume the RNG stream in another order,
so they agree statistically.

Each Markov computation likewise has one production solver; the
independent solvers it is cross-checked against live here too
(:func:`transient_distribution_ode`, and the
:func:`stationary_distribution_nullspace` and
:func:`stationary_distribution_power` steady-state solvers).  They share
production's input checks and normalisation, so they differ from it only
in the numerical method.  Production modules never import this one.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
import scipy.integrate
import scipy.linalg

from repro.core.parameters import DRAConfig, FailureRates
from repro.markov.ctmc import CTMC
from repro.markov.stationary import _clean, _require_irreducible
from repro.markov.transient import _solve_checked
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
    "stationary_distribution_nullspace",
    "stationary_distribution_power",
    "transient_distribution_ode",
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


# --- Markov solvers ------------------------------------------------------


def _solve_ode(chain: CTMC, t: np.ndarray, pi0: np.ndarray) -> np.ndarray:
    QT = chain.generator.T.tocsr()

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return QT @ y

    t_end = float(t.max())
    if t_end == 0.0:
        return np.tile(pi0, (t.size, 1))
    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, t_end),
        pi0,
        t_eval=np.unique(t),
        method="LSODA",  # stiff-aware: failure ~1e-6/h vs repair ~1e0/h rates
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:  # pragma: no cover - scipy failure path
        raise RuntimeError(f"ODE transient solve failed: {sol.message}")
    by_time = {float(tv): sol.y[:, i] for i, tv in enumerate(sol.t)}
    return np.array([by_time[float(tk)] for tk in t])


def transient_distribution_ode(
    chain: CTMC,
    times: np.ndarray,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """LSODA reference for :func:`repro.markov.transient_distribution`.

    Integrates the Kolmogorov forward equation ``dpi/dt = pi Q`` to
    rtol 1e-10 / atol 1e-12, with production's input checks and row
    renormalisation.
    """
    return _solve_checked(chain, times, initial, _solve_ode)


def stationary_distribution_nullspace(chain: CTMC) -> np.ndarray:
    """Dense-SVD reference for :func:`repro.markov.stationary_distribution`:
    the null space of ``Q^T``."""
    if chain.n_states == 1:
        return np.ones(1)
    _require_irreducible(chain)
    ns = scipy.linalg.null_space(chain.generator.T.toarray())
    if ns.shape[1] != 1:  # pragma: no cover - guarded by irreducibility check
        raise RuntimeError(f"null space dimension {ns.shape[1]} != 1")
    pi = ns[:, 0]
    return _clean(-pi if pi.sum() < 0 else pi)


def stationary_distribution_power(chain: CTMC) -> np.ndarray:
    """Power-iteration reference for
    :func:`repro.markov.stationary_distribution`, on the uniformized DTMC
    until the largest per-step change is below 1e-13."""
    if chain.n_states == 1:
        return np.ones(1)
    _require_irreducible(chain)
    P, _lam = chain.uniformized_matrix()
    PT = P.T.tocsr()
    pi = np.full(chain.n_states, 1.0 / chain.n_states)
    max_iter = 2_000_000
    for _ in range(max_iter):
        nxt = PT @ pi
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() < 1e-13:
            return _clean(nxt)
        pi = nxt
    raise RuntimeError(
        f"power iteration did not converge in {max_iter} iterations"
    )
