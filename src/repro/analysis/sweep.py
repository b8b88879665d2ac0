"""Parameter-sweep drivers producing tidy records.

Each sweep returns a flat list of :class:`SweepRecord` -- one measurement
per (configuration, parameter point) -- which the table formatters and the
CSV exporter consume.  The sweeps mirror the paper's figure axes:

* :func:`reliability_sweep` -- Figure 6's two families
  ({M=2, N=3..9} and {N=9, M=4..8}) plus BDR over a time grid;
* :func:`availability_sweep` -- Figure 7's (M, N, mu) grid;
* :func:`performance_sweep` -- Figure 8's (load, X_faulty) grid.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.availability import bdr_availability, dra_availability
from repro.core.parameters import DRAConfig, FailureRates, RepairPolicy
from repro.core.performance import DEFAULT_LC_CAPACITY_GBPS, PerformanceModel
from repro.core.reliability import bdr_reliability, dra_reliability

__all__ = [
    "SweepRecord",
    "reliability_sweep",
    "availability_sweep",
    "performance_sweep",
    "FIG6_TIME_GRID",
    "FIG6_CONFIGS",
    "FIG7_CONFIGS",
    "FIG8_LOADS",
]

#: Figure 6's horizontal axis: 0 to 100,000 hours.
FIG6_TIME_GRID = np.linspace(0.0, 100_000.0, 51)

#: Figure 6's curve families: fix M=2 and vary N in 3..9, then fix N=9 and
#: vary M in 4..8.
FIG6_CONFIGS: tuple[tuple[int, int], ...] = tuple(
    [(n, 2) for n in range(3, 10)] + [(9, m) for m in range(4, 9)]
)

#: Figure 7 evaluates the same configuration families as Figure 6.
FIG7_CONFIGS: tuple[tuple[int, int], ...] = FIG6_CONFIGS

#: Figure 8's load series (15% is the cited Internet average; 70% the high end).
FIG8_LOADS: tuple[float, ...] = (0.15, 0.30, 0.50, 0.70)


@dataclass(frozen=True)
class SweepRecord:
    """One measurement point of a sweep."""

    label: str
    x: float
    value: float
    extra: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default: object = None) -> object:
        """Look up an ``extra`` annotation by key."""
        for k, v in self.extra:
            if k == key:
                return v
        return default


def reliability_sweep(
    times: np.ndarray | None = None,
    configs: Iterable[tuple[int, int]] | None = None,
    rates: FailureRates | None = None,
    *,
    variant: str = "paper",
    include_bdr: bool = True,
) -> list[SweepRecord]:
    """R(t) records for every configuration and time point (Figure 6)."""
    times = FIG6_TIME_GRID if times is None else np.asarray(times, dtype=np.float64)
    configs = FIG6_CONFIGS if configs is None else tuple(configs)
    records: list[SweepRecord] = []
    if include_bdr:
        res = bdr_reliability(times, rates)
        records.extend(
            SweepRecord("BDR", float(t), float(r))
            for t, r in zip(times, res.reliability)
        )
    for n, m in configs:
        cfg = DRAConfig(n=n, m=m, variant=variant)
        res = dra_reliability(cfg, times, rates)
        records.extend(
            SweepRecord(
                res.label, float(t), float(r), extra=(("n", n), ("m", m))
            )
            for t, r in zip(times, res.reliability)
        )
    return records


def availability_sweep(
    configs: Iterable[tuple[int, int]] | None = None,
    repairs: Sequence[RepairPolicy] | None = None,
    rates: FailureRates | None = None,
    *,
    variant: str = "paper",
    include_bdr: bool = True,
) -> list[SweepRecord]:
    """Steady-state availability records (Figure 7).

    ``x`` carries the repair rate ``mu``; ``extra`` carries the nines.
    """
    configs = FIG7_CONFIGS if configs is None else tuple(configs)
    repairs = repairs or (RepairPolicy.three_hours(), RepairPolicy.half_day())
    records: list[SweepRecord] = []
    for rp in repairs:
        if include_bdr:
            res = bdr_availability(rp, rates)
            records.append(
                SweepRecord(
                    "BDR", rp.mu, res.availability,
                    extra=(("nines", res.nines), ("notation", res.notation)),
                )
            )
        for n, m in configs:
            cfg = DRAConfig(n=n, m=m, variant=variant)
            res = dra_availability(cfg, rp, rates)
            records.append(
                SweepRecord(
                    res.label, rp.mu, res.availability,
                    extra=(
                        ("n", n), ("m", m),
                        ("nines", res.nines), ("notation", res.notation),
                    ),
                )
            )
    return records


def performance_sweep(
    loads: Sequence[float] | None = None,
    *,
    n: int = 6,
    c_lc: float = DEFAULT_LC_CAPACITY_GBPS,
    b_bus: float | None = None,
) -> list[SweepRecord]:
    """Bandwidth-degradation records (Figure 8).

    ``x`` is ``X_faulty``; ``value`` the percentage of required bandwidth.
    """
    loads = FIG8_LOADS if loads is None else tuple(loads)
    model = PerformanceModel(n=n, c_lc=c_lc, b_bus=b_bus)
    records: list[SweepRecord] = []
    for load in loads:
        for x_faulty in range(1, n):
            records.append(
                SweepRecord(
                    f"L={load:.0%}",
                    float(x_faulty),
                    model.degradation_percent(x_faulty, load),
                    extra=(("load", load),),
                )
            )
    return records
