"""Parallel, cache-aware drivers for the Figure 6/7/8 sweeps.

Each driver is a drop-in equivalent of its serial counterpart in
:mod:`repro.analysis.sweep`: same arguments, same record order, same
values.  The unit of parallel work is one *curve* -- a (configuration,
repair-policy) pair -- because each unit builds and solves an independent
Markov chain, which is where all the time goes; the per-unit record
lists are merged back in serial submission order so the output is
indistinguishable from a serial run.

With a :class:`~repro.runtime.cache.ResultCache` attached, every unit is
looked up before being dispatched and stored after being solved, so a
repeated ``report``/``claims``/figure run re-solves nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.analysis.sweep import (
    FIG6_CONFIGS,
    FIG6_TIME_GRID,
    FIG7_CONFIGS,
    SweepRecord,
    availability_sweep,
    performance_sweep,
    reliability_sweep,
)
from repro.core.parameters import FailureRates, RepairPolicy
from repro.core.performance import DEFAULT_LC_CAPACITY_GBPS
from repro.runtime.cache import ResultCache
from repro.runtime.executor import effective_jobs, metered_parallel_map

__all__ = [
    "parallel_reliability_sweep",
    "parallel_availability_sweep",
    "parallel_performance_sweep",
]

#: Sentinel naming the baseline curve in a work-unit spec.
_BDR = "BDR"


def _fill_units(
    payloads: Sequence[Any],
    task: Callable[[Any], list[SweepRecord]],
    keys: Sequence[str] | None,
    *,
    jobs: int,
    cache: ResultCache | None,
) -> list[list[SweepRecord]]:
    """Resolve every unit from cache or the pool, preserving order."""
    results: list[list[SweepRecord] | None] = [None] * len(payloads)
    missing: list[int] = []
    for idx in range(len(payloads)):
        if cache is not None and keys is not None:
            hit, value = cache.get(keys[idx])
            if hit:
                results[idx] = value
                continue
        missing.append(idx)
    computed = metered_parallel_map(task, [payloads[i] for i in missing], jobs=jobs)
    for idx, value in zip(missing, computed):
        results[idx] = value
        if cache is not None and keys is not None:
            cache.put(keys[idx], value)
    return results  # type: ignore[return-value]


def _reliability_unit(payload: tuple) -> list[SweepRecord]:
    times, spec, rates, variant = payload
    if spec == _BDR:
        return reliability_sweep(times, configs=(), rates=rates, include_bdr=True)
    n, m = spec
    return reliability_sweep(
        times, configs=[(n, m)], rates=rates, variant=variant, include_bdr=False
    )


def parallel_reliability_sweep(
    times: np.ndarray | None = None,
    configs: Iterable[tuple[int, int]] | None = None,
    rates: FailureRates | None = None,
    *,
    variant: str = "paper",
    include_bdr: bool = True,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[SweepRecord]:
    """Figure 6 records, one worker task per reliability curve."""
    times = FIG6_TIME_GRID if times is None else np.asarray(times, dtype=np.float64)
    configs = FIG6_CONFIGS if configs is None else tuple(configs)
    rates = rates or FailureRates()
    jobs = effective_jobs(jobs)
    specs: list[Any] = ([_BDR] if include_bdr else []) + list(configs)
    payloads = [(times, spec, rates, variant) for spec in specs]
    keys = (
        [
            cache.key(
                "reliability_sweep",
                times=times,
                spec=spec,
                rates=rates,
                variant=variant,
            )
            for spec in specs
        ]
        if cache is not None
        else None
    )
    per_unit = _fill_units(payloads, _reliability_unit, keys, jobs=jobs, cache=cache)
    return [rec for unit in per_unit for rec in unit]


def _availability_unit(payload: tuple) -> list[SweepRecord]:
    spec, repair, rates, variant = payload
    if spec == _BDR:
        return availability_sweep(
            configs=(), repairs=[repair], rates=rates, include_bdr=True
        )
    n, m = spec
    return availability_sweep(
        configs=[(n, m)],
        repairs=[repair],
        rates=rates,
        variant=variant,
        include_bdr=False,
    )


def parallel_availability_sweep(
    configs: Iterable[tuple[int, int]] | None = None,
    repairs: Sequence[RepairPolicy] | None = None,
    rates: FailureRates | None = None,
    *,
    variant: str = "paper",
    include_bdr: bool = True,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[SweepRecord]:
    """Figure 7 records, one worker task per (repair policy, config)."""
    configs = FIG7_CONFIGS if configs is None else tuple(configs)
    repairs = tuple(repairs) if repairs else (
        RepairPolicy.three_hours(),
        RepairPolicy.half_day(),
    )
    rates = rates or FailureRates()
    jobs = effective_jobs(jobs)
    specs: list[tuple[Any, RepairPolicy]] = []
    for rp in repairs:
        if include_bdr:
            specs.append((_BDR, rp))
        specs.extend(((n, m), rp) for n, m in configs)
    payloads = [(spec, rp, rates, variant) for spec, rp in specs]
    keys = (
        [
            cache.key(
                "availability_sweep",
                spec=spec,
                repair=rp,
                rates=rates,
                variant=variant,
            )
            for spec, rp in specs
        ]
        if cache is not None
        else None
    )
    per_unit = _fill_units(payloads, _availability_unit, keys, jobs=jobs, cache=cache)
    return [rec for unit in per_unit for rec in unit]


def parallel_performance_sweep(
    loads: Sequence[float] | None = None,
    *,
    n: int = 6,
    c_lc: float = DEFAULT_LC_CAPACITY_GBPS,
    b_bus: float | None = None,
    cache: ResultCache | None = None,
) -> list[SweepRecord]:
    """Figure 8 records (algebraic -- microseconds of work, so the
    computation always runs in-process; the cache still applies)."""
    if cache is None:
        return performance_sweep(loads=loads, n=n, c_lc=c_lc, b_bus=b_bus)
    key = cache.key(
        "performance_sweep",
        loads=None if loads is None else tuple(loads),
        n=n,
        c_lc=c_lc,
        b_bus=b_bus,
    )
    return cache.get_or_compute(
        key, lambda: performance_sweep(loads=loads, n=n, c_lc=c_lc, b_bus=b_bus)
    )
