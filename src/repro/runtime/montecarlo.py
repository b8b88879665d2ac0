"""Parallel Monte Carlo drivers with a worker-count-independent guarantee.

Both drivers here split a trial/cycle budget into **fixed-size chunks**
whose boundaries depend only on the budget and the chunk size -- never on
the worker count -- and give every chunk a statistically independent RNG
stream via ``numpy.random.SeedSequence.spawn``.  Each chunk's partial
result (survival counts, cycle-statistic sums) is computed identically
wherever it runs, and the reduction is either order-independent (integer
counts) or performed in chunk-index order (floating-point sums), so:

    for a given root seed, results are **bit-identical** for any
    ``jobs`` value -- ``--jobs 1`` and ``--jobs 64`` agree to the last
    ULP.

This is the property the ``repro validate --jobs N`` acceptance check
and ``tests/runtime/test_parallel_mc.py`` pin down; see
``docs/performance.md`` for the full argument.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from functools import reduce

import numpy as np

from repro.core.availability import build_dra_availability_chain
from repro.core.parameters import DRAConfig, FailureRates, RepairPolicy
from repro.core.states import Failed
from repro.montecarlo.importance import (
    CycleStatistics,
    ImportanceSamplingResult,
    collect_cycle_statistics,
    result_from_statistics,
)
from repro.montecarlo.lifetime import LifetimeEstimate, sample_lc_failure_times
from repro.runtime.executor import effective_jobs, metered_parallel_map

__all__ = [
    "DEFAULT_MC_CHUNK_TRIALS",
    "DEFAULT_IS_CHUNK_CYCLES",
    "parallel_structure_function_reliability",
    "parallel_unavailability_importance_sampling",
]

#: Trials per structure-function chunk.  Large enough that the vectorised
#: exponential sampling dominates the per-chunk dispatch cost, small
#: enough that a 1e6-trial batch still splits into ~15 chunks for load
#: balancing.  Part of the determinism contract: changing it changes the
#: chunk boundaries and therefore the streams.
DEFAULT_MC_CHUNK_TRIALS = 65_536

#: Regenerative cycles per importance-sampling chunk.
DEFAULT_IS_CHUNK_CYCLES = 2_000


def _chunk_sizes(total: int, chunk: int, *, minimum: int = 1) -> list[int]:
    """Deterministic chunk sizes: full chunks plus one remainder.

    A remainder smaller than ``minimum`` is folded into the last full
    chunk so no chunk falls below the estimator's floor.  Depends only on
    ``(total, chunk, minimum)`` -- never on the worker count.
    """
    if total < minimum:
        raise ValueError(f"need at least {minimum} items, got {total}")
    chunk = max(chunk, minimum)
    sizes = [chunk] * (total // chunk)
    rem = total % chunk
    if rem:
        if rem < minimum and sizes:
            sizes[-1] += rem
        else:
            sizes.append(rem)
    return sizes


# --- structure-function reliability ------------------------------------


def _lifetime_chunk(payload: tuple) -> np.ndarray:
    """Survival counts per time point for one chunk (int64 vector)."""
    config, times, n_chunk, seed, rates = payload
    rng = np.random.default_rng(seed)
    failure_times = sample_lc_failure_times(config, n_chunk, rng, rates)
    return (failure_times[np.newaxis, :] > times[:, np.newaxis]).sum(
        axis=1, dtype=np.int64
    )


def parallel_structure_function_reliability(
    config: DRAConfig,
    times: np.ndarray,
    n_samples: int,
    root_seed: int | Sequence[int],
    *,
    rates: FailureRates | None = None,
    jobs: int = 1,
    chunk_trials: int = DEFAULT_MC_CHUNK_TRIALS,
) -> LifetimeEstimate:
    """Parallel empirical ``R(t)`` from the DRA structure function.

    Splits ``n_samples`` trials into fixed chunks, spawns one independent
    stream per chunk from ``SeedSequence(root_seed)``, and reduces the
    per-chunk survival *counts* (integers -- addition is exact and
    order-free), so the estimate is bit-identical for any ``jobs``.
    """
    times = np.asarray(times, dtype=np.float64)
    jobs = effective_jobs(jobs)
    sizes = _chunk_sizes(n_samples, chunk_trials)
    seeds = np.random.SeedSequence(root_seed).spawn(len(sizes))
    payloads = [
        (config, times, size, seed, rates) for size, seed in zip(sizes, seeds)
    ]
    counts = metered_parallel_map(_lifetime_chunk, payloads, jobs=jobs)
    survivors = np.sum(counts, axis=0, dtype=np.int64)
    r_hat = survivors / n_samples
    se = np.sqrt(np.clip(r_hat * (1.0 - r_hat), 0.0, None) / n_samples)
    return LifetimeEstimate(
        times=times, reliability=r_hat, std_error=se, n_samples=n_samples
    )


# --- rare-event importance sampling ------------------------------------


@functools.lru_cache(maxsize=32)
def _availability_chain(
    config: DRAConfig, repair: RepairPolicy, rates: FailureRates | None
):
    """Per-process chain cache: workers rebuild each chain at most once."""
    return build_dra_availability_chain(config, repair, rates)


def _is_chunk(payload: tuple) -> CycleStatistics:
    """Cycle statistics for one importance-sampling chunk."""
    config, repair, rates, n_chunk, seed, bias, repair_threshold, max_jumps = payload
    chain = _availability_chain(config, repair, rates)
    rng = np.random.default_rng(seed)
    return collect_cycle_statistics(
        chain,
        Failed,
        n_chunk,
        rng,
        bias=bias,
        repair_threshold=repair_threshold,
        max_jumps_per_cycle=max_jumps,
    )


def parallel_unavailability_importance_sampling(
    config: DRAConfig,
    repair: RepairPolicy,
    n_cycles: int,
    root_seed: int | Sequence[int],
    *,
    rates: FailureRates | None = None,
    jobs: int = 1,
    chunk_cycles: int = DEFAULT_IS_CHUNK_CYCLES,
    bias: float = 0.5,
    repair_threshold: float = 100.0,
    max_jumps_per_cycle: int = 100_000,
) -> ImportanceSamplingResult:
    """Parallel balanced-failure-biasing estimate of DRA unavailability.

    Each fixed-size chunk simulates its cycles with its own spawned
    stream and returns mergeable :class:`CycleStatistics`; merging in
    chunk-index order fixes the floating-point summation order, so the
    estimate is bit-identical for any ``jobs``.  The worker builds the
    availability chain itself (memoised per process) -- only small frozen
    dataclasses cross the process boundary.
    """
    jobs = effective_jobs(jobs)
    sizes = _chunk_sizes(n_cycles, chunk_cycles, minimum=2)
    seeds = np.random.SeedSequence(root_seed).spawn(len(sizes))
    payloads = [
        (config, repair, rates, size, seed, bias, repair_threshold, max_jumps_per_cycle)
        for size, seed in zip(sizes, seeds)
    ]
    stats = metered_parallel_map(_is_chunk, payloads, jobs=jobs)
    return result_from_statistics(reduce(CycleStatistics.merge, stats))
