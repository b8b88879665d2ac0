"""Trajectory sampling of CTMCs.

Implements the standard jump-chain simulation: from state ``i`` draw an
Exp(exit_rate_i) holding time, then jump to ``j`` with probability
``Q[i, j] / exit_rate_i``.  Built on the chain's CSR generator with
per-row alias-free sampling via cumulative sums.

The ensemble estimators (:func:`empirical_state_probabilities`,
:func:`empirical_availability`) advance every sampled path in lockstep
-- one numpy step per jump depth across the whole ensemble -- against
padded per-state cumulative jump distributions.  Paths retire from the
active set once they cross the horizon (or absorb).  Their
per-trajectory reference loops live in :mod:`repro.validate.oracles`;
those consume the ``Generator`` stream differently, so a fixed seed
gives statistically identical (not bit-identical) results, while each
side is a pure function of the seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.markov.ctmc import CTMC

__all__ = [
    "TrajectorySample",
    "sample_trajectory",
    "empirical_state_probabilities",
    "empirical_availability",
]


@dataclass(frozen=True)
class TrajectorySample:
    """One sampled path: visited state indices and jump times.

    ``times[k]`` is when the chain *entered* ``states[k]``; the final
    state persists beyond ``times[-1]`` (to the horizon or forever if
    absorbing).
    """

    states: np.ndarray
    times: np.ndarray

    def state_at(self, t: float) -> int:
        """State index occupied at time ``t``."""
        if t < 0.0:
            raise ValueError(f"negative time {t}")
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        return int(self.states[max(k, 0)])


class _JumpSampler:
    """Precomputed per-state jump distributions for fast repeated sampling.

    Holds both the ragged per-state arrays (one path at a time, for
    :func:`sample_trajectory`) and the padded cumulative-distribution
    matrices the lockstep-batched kernels index with whole state vectors
    at once.
    """

    def __init__(self, chain: CTMC) -> None:
        Q = chain.generator
        n = chain.n_states
        indptr, indices, data = Q.indptr, Q.indices, Q.data
        self.exit = chain.exit_rates()
        self.targets: list[np.ndarray] = []
        self.cumprobs: list[np.ndarray] = []
        for i in range(n):
            cols = indices[indptr[i]:indptr[i + 1]]
            rates = data[indptr[i]:indptr[i + 1]]
            mask = (cols != i) & (rates > 0.0)
            cols, rates = cols[mask], rates[mask]
            self.targets.append(cols.astype(np.int64))
            if rates.size:
                self.cumprobs.append(np.cumsum(rates) / rates.sum())
            else:
                self.cumprobs.append(np.empty(0))
        degree = np.array([t.size for t in self.targets], dtype=np.int64)
        width = max(int(degree.max()) if degree.size else 1, 1)
        self.last_slot = np.maximum(degree - 1, 0)
        self.pad_targets = np.zeros((n, width), dtype=np.int64)
        self.pad_cum = np.ones((n, width))
        for i in range(n):
            d = int(degree[i])
            if d == 0:
                continue  # absorbing; never reaches jump selection
            self.pad_targets[i, :d] = self.targets[i]
            self.pad_targets[i, d:] = self.targets[i][-1]
            self.pad_cum[i, :d] = self.cumprobs[i]

    def next_state(self, i: int, rng: np.random.Generator) -> int:
        cp = self.cumprobs[i]
        k = int(np.searchsorted(cp, rng.random(), side="right"))
        return int(self.targets[i][k])

    def next_states(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Batched jump selection: one uniform draw per active path."""
        k = (self.pad_cum[states] <= u[:, np.newaxis]).sum(axis=1)
        k = np.minimum(k, self.last_slot[states])
        return self.pad_targets[states, k]


def sample_trajectory(
    chain: CTMC,
    horizon: float,
    rng: np.random.Generator,
    *,
    initial_state: int = 0,
    _sampler: _JumpSampler | None = None,
) -> TrajectorySample:
    """Sample one path of ``chain`` up to ``horizon``."""
    sampler = _sampler or _JumpSampler(chain)
    states = [initial_state]
    times = [0.0]
    t = 0.0
    i = initial_state
    while True:
        rate = sampler.exit[i]
        if rate <= 0.0:
            break  # absorbing
        t += float(rng.exponential(1.0 / rate))
        if t > horizon:
            break
        i = sampler.next_state(i, rng)
        states.append(i)
        times.append(t)
    return TrajectorySample(np.asarray(states), np.asarray(times))


def _lockstep_segments(
    sampler: _JumpSampler,
    n_samples: int,
    initial_state: int,
    horizon: float,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Advance paths one jump depth per step, yielding ``(active, states,
    t_enter, t_exit)``: the segment each running path occupies.  Paths
    retire past ``horizon``; absorbing states dwell forever."""
    t_enter = np.zeros(n_samples)
    state = np.full(n_samples, initial_state, dtype=np.int64)
    active = np.arange(n_samples)
    while active.size:
        s = state[active]
        rate = sampler.exit[s]
        can_jump = rate > 0.0
        dwell = np.full(s.size, np.inf)
        if can_jump.any():
            n = int(np.count_nonzero(can_jump))
            dwell[can_jump] = rng.standard_exponential(n) / rate[can_jump]
        t_exit = t_enter[active] + dwell
        yield active, s, t_enter[active], t_exit
        cont = t_exit <= horizon
        nxt = active[cont]
        if nxt.size:
            u = rng.random(nxt.size)
            state[nxt] = sampler.next_states(s[cont], u)
            t_enter[nxt] = t_exit[cont]
        active = nxt


def empirical_state_probabilities(
    chain: CTMC,
    times: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    *,
    initial_state: int = 0,
) -> np.ndarray:
    """Monte Carlo estimate of the transient distribution.

    Returns ``(len(times), n_states)`` empirical frequencies; each row is
    an unbiased estimate of ``pi(t)`` with per-entry standard error
    ``sqrt(p (1 - p) / n_samples)``.
    """
    times = np.asarray(times, dtype=np.float64)
    sampler = _JumpSampler(chain)
    horizon = float(times.max()) if times.size else 0.0
    counts = np.zeros((times.size, chain.n_states))
    for _, s, t_enter, t_exit in _lockstep_segments(
        sampler, n_samples, initial_state, horizon, rng
    ):
        # The segment [t_enter, t_exit) is occupied by s; a time point
        # landing exactly on a jump belongs to the *next* segment,
        # matching TrajectorySample.state_at's right-sided search.
        for j in range(times.size):
            seg = (t_enter <= times[j]) & (times[j] < t_exit)
            if seg.any():
                np.add.at(counts[j], s[seg], 1.0)
    return counts / n_samples


def empirical_availability(
    chain: CTMC,
    failed_index: int,
    horizon: float,
    n_samples: int,
    rng: np.random.Generator,
    *,
    initial_state: int = 0,
    warmup_fraction: float = 0.1,
) -> tuple[float, float]:
    """Long-run availability by time-average over sampled paths.

    Returns ``(estimate, standard_error)``.  ``warmup_fraction`` of the
    horizon is discarded to reduce initial-state bias.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must lie in [0, 1), got {warmup_fraction}")
    sampler = _JumpSampler(chain)
    warmup = horizon * warmup_fraction
    window = horizon - warmup
    down = np.zeros(n_samples)
    for active, s, t_enter, t_exit in _lockstep_segments(
        sampler, n_samples, initial_state, horizon, rng
    ):
        in_failed = s == failed_index
        if in_failed.any():
            # Downtime contributed by this segment, clipped to the
            # measurement window (warmup, horizon].
            seg = np.clip(
                np.minimum(t_exit[in_failed], horizon)
                - np.maximum(t_enter[in_failed], warmup),
                0.0,
                None,
            )
            down[active[in_failed]] += seg
    fractions = 1.0 - down / window
    est = float(fractions.mean())
    se = float(fractions.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return est, se
