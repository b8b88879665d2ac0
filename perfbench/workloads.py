"""The benchmark's three workloads and their correctness checks.

Every workload is a sequence of *operations*: one chaos schedule
(``chaos``), one traced schedule plus its incident fold
(``chaos-observed``), or one regeneration of the paper's artefacts
(``paper``).  :func:`setup` imports what a workload needs and builds its
configuration -- the part timed as ``setup_s`` -- and
:meth:`Workload.run_op` runs and checks one operation.

The program is reached only through public functions, and always through
their module (``campaign.run_schedule``, not a bound name), so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import shutil
from typing import Any

import numpy as np

WORKLOADS = ("chaos", "chaos-observed", "paper")

#: Structure-function Monte Carlo trials and importance-sampling cycles
#: per ``paper`` pass.
SF_TRIALS = 1_000_000
IS_CYCLES = 200_000
#: z-score within which the importance-sampling estimate must meet the
#: Markov unavailability.
IS_Z = 5


def canonical(obj: Any) -> Any:
    """JSON-ready form of results: dataclasses, enums and numpy values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def digest(obj: Any) -> str:
    """Short stable hash of a result (sorted-key JSON of its canonical form)."""
    text = json.dumps(canonical(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_specs(workload: str, seed: int, count: int, pool: int) -> list[int]:
    """The operation inputs of a run, derived from the workload seed.

    Chaos workloads run the ``pool`` schedules of the default campaign
    (whose outputs are recorded) in a seed-given order; ``paper`` passes
    get seeds drawn from the workload seed.
    """
    rng = np.random.default_rng(seed)
    if workload == "paper":
        return [int(s) for s in rng.integers(0, 2**31, size=count)]
    order = rng.permutation(pool).tolist()
    return [order[i % pool] for i in range(count)]


def pool_size() -> int:
    """Schedules in the default chaos campaign."""
    from repro.chaos import CampaignConfig

    return CampaignConfig().seeds


def fold_trace(path: str, source: str) -> tuple[list, dict]:
    """Fold one trace file into incident spans and its incidents report,
    the same steps as the ``incidents`` subcommand."""
    from repro.obs import spans as obs_spans
    from repro.obs import health, trace

    spans = obs_spans.SpanBuilder().feed_all(trace.iter_trace(path)).spans()
    report = obs_spans.build_incident_report(spans, source=source)
    report["health"] = health.build_scorecards(spans)
    return spans, report


@dataclasses.dataclass
class OpResult:
    """Outcome of one operation: checks attempted and failed, what
    failed, a digest of every output, and simulated work counts."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    digest: str = ""
    stats: dict[str, float] = dataclasses.field(default_factory=dict)
    #: digests of the seed-independent outputs, by name
    recorded: dict[str, str] = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def match(self, name: str, value: Any, want: dict) -> None:
        """Check ``value`` against its recorded digest ``want[name]``."""
        self.recorded[name] = digest(value)
        self.check(
            self.recorded[name] == want.get(name),
            f"{name} differs from the recorded output",
        )


class Workload:
    """Base: configuration built by :func:`setup`, one op per call."""

    def __init__(self, expected: dict, tmp_dir: str) -> None:
        self.expected = expected
        self.tmp_dir = tmp_dir

    def run_op(self, spec: int) -> OpResult:
        raise NotImplementedError


class Chaos(Workload):
    """One schedule of the default chaos campaign, untraced."""

    def __init__(self, expected: dict, tmp_dir: str) -> None:
        super().__init__(expected, tmp_dir)
        from repro.chaos import CampaignConfig, campaign

        self.campaign = campaign
        self.cfg = CampaignConfig()

    def _schedule(self, idx: int, res: OpResult) -> dict:
        summary = self.campaign.run_schedule(self.cfg, idx)
        res.check(not summary["violations"], f"schedule {idx}: invariant violations")
        res.match("summary", summary, self.expected["chaos"][idx])
        res.stats.update(
            {
                "faults.injected": summary["fault_actions"].get("fail", 0),
                "chaos.violations": len(summary["violations"]),
            }
        )
        return summary

    def run_op(self, spec: int) -> OpResult:
        res = OpResult()
        summary = self._schedule(spec, res)
        res.digest = digest(summary)
        return res


class ChaosObserved(Chaos):
    """One schedule under a file-backed tracer, then its incident fold."""

    def __init__(self, expected: dict, tmp_dir: str) -> None:
        super().__init__(expected, tmp_dir)
        from repro.obs import trace

        self.trace = trace

    def run_op(self, spec: int) -> OpResult:
        res = OpResult()
        path = os.path.join(self.tmp_dir, f"schedule-{spec}.jsonl")
        tracer = self.trace.Tracer(path)
        try:
            with self.trace.tracing(tracer):
                summary = self._schedule(spec, res)
        finally:
            tracer.close()
        try:
            trace_bytes = os.path.getsize(path)
            spans, report = fold_trace(path, f"schedule[{spec}]")
        finally:
            os.remove(path)
        fails = summary["fault_actions"].get("fail", 0)
        res.check(
            len(spans) == fails,
            f"schedule {spec}: {len(spans)} incident spans for {fails} faults",
        )
        res.match("incidents", report, self.expected["chaos"][spec])
        res.stats.update(
            {
                "obs.trace.events": tracer.emitted,
                "obs.trace.bytes": trace_bytes,
                "obs.spans.spans": len(spans),
            }
        )
        res.digest = digest([summary, report, trace_bytes])
        return res


class Paper(Workload):
    """Regenerate the paper's claims, figures, estimators and validation."""

    def __init__(self, expected: dict, tmp_dir: str, perturb: dict | None = None) -> None:
        super().__init__(expected, tmp_dir)
        from repro.analysis import claims, sweep
        from repro.core import (
            DRAConfig,
            RepairPolicy,
            availability,
            cost,
            importance,
            mttf,
        )
        from repro.runtime import cache, montecarlo, sweeps
        from repro.validate import engine

        self.claims, self.sweep, self.sweeps = claims, sweep, sweeps
        self.availability, self.cost, self.importance, self.mttf = (
            availability, cost, importance, mttf,
        )
        self.cache, self.montecarlo, self.validate = cache, montecarlo, engine
        self.perturb = dict(perturb or {})
        self.sf_config = DRAConfig(n=9, m=4)
        self.sf_times = np.linspace(0.0, 100_000.0, 11)
        self.is_config = DRAConfig(n=3, m=2)
        self.mttf_configs = [DRAConfig(n=3, m=2), DRAConfig(n=9, m=4)]
        self.repair = RepairPolicy.three_hours()
        self.fig8_loads = [0.15, 0.30, 0.50, 0.70]

    def run_op(self, spec: int) -> OpResult:
        res = OpResult()
        want = self.expected["paper"]
        outputs: dict[str, Any] = {}

        claims = self.claims.check_claims()
        for claim in claims:
            res.check(claim.passed, f"claim {claim.claim.claim_id} fails: {claim.detail}")
        outputs["claims"] = [(c.claim.claim_id, c.passed, c.detail) for c in claims]
        res.match("claims", outputs["claims"], want)

        self._figures(spec, res, outputs)

        sf = self.montecarlo.parallel_structure_function_reliability(
            self.sf_config, self.sf_times, SF_TRIALS, spec, jobs=1
        )
        rel = sf.reliability
        res.check(
            rel[0] == 1.0 and bool(np.all(np.diff(rel) <= 0.0)) and rel[-1] > 0.0,
            "structure-function reliability is not a survival curve",
        )
        is_est = self.montecarlo.parallel_unavailability_importance_sampling(
            self.is_config, self.repair, IS_CYCLES, spec, jobs=1
        )
        markov_u = self.availability.dra_availability(
            self.is_config, self.repair
        ).unavailability
        res.check(
            abs(is_est.unavailability - markov_u) < IS_Z * is_est.std_error,
            "importance-sampling unavailability misses the Markov value",
        )
        outputs["mc"] = [sf, is_est]

        report = self.validate.run_suite("full", seed=spec, jobs=1, perturb=self.perturb)
        for pair in report["pairs"]:
            res.check(pair["passed"], f"validate pair {pair['pair']} fails")
        outputs["validate"] = report
        res.digest = digest(outputs)
        return res

    def _figures(self, spec: int, res: OpResult, outputs: dict) -> None:
        want = self.expected["paper"]
        cache = self.cache.ResultCache(os.path.join(self.tmp_dir, f"cache-{spec}"))
        cold6 = self.sweeps.parallel_reliability_sweep(jobs=1, cache=cache)
        cold7 = self.sweeps.parallel_availability_sweep(jobs=1, cache=cache)
        misses = cache.misses
        warm6 = self.sweeps.parallel_reliability_sweep(jobs=1, cache=cache)
        warm7 = self.sweeps.parallel_availability_sweep(jobs=1, cache=cache)
        res.match("fig6", cold6, want)
        res.match("fig7", cold7, want)
        res.check(
            warm6 == cold6 and warm7 == cold7 and cache.hits == misses == cache.misses,
            "warm-cache sweeps differ from cold ones or missed the cache",
        )
        outputs["fig6"], outputs["fig7"] = cold6, cold7
        outputs["fig8"] = self.sweep.performance_sweep(loads=self.fig8_loads, n=6)
        outputs["mttf"] = [self.mttf.bdr_mttf()] + [
            self.mttf.dra_mttf(c) for c in self.mttf_configs
        ]
        outputs["cost"] = self.cost.compare_designs(8, 2)
        outputs["importance"] = self.importance.unavailability_elasticities(
            self.sf_config
        )
        for name in ("fig8", "mttf", "cost", "importance"):
            res.match(name, outputs[name], want)
        res.stats.update(
            {"runtime.cache.hits": cache.hits, "runtime.cache.misses": cache.misses}
        )
        shutil.rmtree(cache.root)


def setup(workload: str, expected: dict, tmp_dir: str, perturb: dict | None = None) -> Workload:
    """Import and configure ``workload``; the part timed as set-up."""
    if workload == "chaos":
        return Chaos(expected, tmp_dir)
    if workload == "chaos-observed":
        return ChaosObserved(expected, tmp_dir)
    if workload == "paper":
        return Paper(expected, tmp_dir, perturb)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
