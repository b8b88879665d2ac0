"""Lightweight wall-time / throughput instrumentation.

``repro.analysis.report`` wraps each of its stages in a
:class:`Stopwatch` and records one :class:`StageTiming` per stage into a
:class:`RuntimeMetrics`, which renders its Runtime table.  Timing never
alters results -- it wraps computations, it does not reorder them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["StageTiming", "Stopwatch", "RuntimeMetrics"]


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock measurement of one named stage.

    ``items`` counts whatever unit the stage processes -- sweep points for
    the figure sweeps, trials for Monte Carlo batches, cycles for
    importance sampling -- so ``throughput`` reads as points/s, trials/s
    or cycles/s accordingly.
    """

    name: str
    wall_s: float
    items: int = 0
    unit: str = "points"
    jobs: int = 1

    @property
    def throughput(self) -> float:
        """Items per second (0 when nothing was counted or time was ~0)."""
        if self.items <= 0 or self.wall_s <= 0.0:
            return 0.0
        return self.items / self.wall_s


class Stopwatch:
    """Context manager measuring elapsed wall time via ``perf_counter``."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start


@dataclass
class RuntimeMetrics:
    """Accumulates stage timings across one CLI invocation or report run."""

    stages: list[StageTiming] = field(default_factory=list)

    def record(
        self,
        name: str,
        wall_s: float,
        *,
        items: int = 0,
        unit: str = "points",
        jobs: int = 1,
    ) -> StageTiming:
        """Append and return a :class:`StageTiming`."""
        stage = StageTiming(name=name, wall_s=wall_s, items=items, unit=unit, jobs=jobs)
        self.stages.append(stage)
        return stage

    @property
    def total_wall_s(self) -> float:
        """Sum of stage wall times (stages run sequentially)."""
        return sum(s.wall_s for s in self.stages)

    def format_table(self) -> str:
        """Fixed-width table in the style of the paper-table formatters."""
        lines = [
            f"{'stage':<34} {'jobs':>4} {'wall (s)':>9} {'items':>10} {'rate':>14}"
        ]
        for s in self.stages:
            rate = f"{s.throughput:,.0f} {s.unit}/s" if s.throughput else "-"
            lines.append(
                f"{s.name:<34} {s.jobs:>4} {s.wall_s:>9.3f} {s.items:>10,} {rate:>14}"
            )
        lines.append(f"{'total':<34} {'':>4} {self.total_wall_s:>9.3f}")
        return "\n".join(lines)
