"""The throughput benchmark suite and its perf-regression gate.

``repro bench --suite throughput`` measures the hot paths this codebase
actually spends its time in -- the DES event loop (a shallow heap, and
a deep one of mostly cancelled timeouts), the batched fabric cell clock
(against its scalar per-cell reference), the vectorized Monte
Carlo kernels (against their scalar reference implementations), and the
sparse Markov solvers across state-space sizes -- and writes the
schema-versioned ``BENCH_throughput.json`` report.

Three design rules keep the report useful as a *gate* rather than a
decoration (``docs/performance.md`` for the policy, ``docs/benchmarks.md``
for the schema):

1. **Deterministic payloads, measured timings.**  Every entry carries a
   ``digest`` of its numerical result, which is a pure function of the
   seed (and bit-identical for any ``--jobs`` by the runtime contract).
   :func:`canonical_throughput_payload` projects a report onto exactly
   those deterministic fields; the projection is byte-identical across
   worker counts and is what CI diffs.
2. **Machine-portable metrics first.**  Absolute events/sec numbers do
   not transfer between machines, so the gate normalizes them by a
   calibration microbenchmark measured in the *same* run (numpy RNG +
   cumsum, the same primitive mix as the MC kernels), and the headline
   metrics are vectorized-vs-scalar speedup *ratios*, which are
   dimensionless and compare cleanly against a baseline recorded on any
   hardware.
3. **An enforced threshold.**  :func:`compare_to_baseline` fails a run
   whose normalized metrics regress more than ``threshold`` (default
   15%) against the committed ``benchmarks/BASELINE_throughput.json``;
   the CLI exits nonzero, which is the CI contract.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.runtime.timing import Stopwatch

__all__ = [
    "THROUGHPUT_SCHEMA",
    "THROUGHPUT_VERSION",
    "BASELINE_SCHEMA",
    "DEFAULT_THRESHOLD",
    "DEFAULT_BASELINE_PATH",
    "run_throughput_suite",
    "canonical_throughput_payload",
    "make_baseline",
    "compare_to_baseline",
    "render_throughput_report",
]

THROUGHPUT_SCHEMA = "repro-bench-throughput"
THROUGHPUT_VERSION = 1
BASELINE_SCHEMA = "repro-bench-throughput-baseline"

#: Maximum tolerated relative regression of any gated metric.  Chosen as
#: roughly 3x the run-to-run noise of the *normalized* metrics on a quiet
#: machine (~3-5%), so the gate trips on real regressions, not scheduler
#: jitter; see docs/performance.md for the measurement.
DEFAULT_THRESHOLD = 0.15

#: Where the committed baseline lives, relative to the repo root.
DEFAULT_BASELINE_PATH = "benchmarks/BASELINE_throughput.json"

#: Size ladder for the solver wall-time entries (DRA configs).
_SOLVER_CONFIGS = ((3, 2), (6, 3), (9, 4))


def _digest(*arrays) -> str:
    """Short sha256 over the float64 bytes of the result arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _entry(name: str, unit: str, items: int, wall_s: float, digest: str) -> dict:
    return {
        "name": name,
        "unit": unit,
        "items": int(items),
        "wall_s": wall_s,
        "per_sec": items / wall_s if wall_s > 0.0 else 0.0,
        "digest": digest,
    }


def _timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; return (last result, best wall time)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        with Stopwatch() as sw:
            result = fn()
        best = min(best, sw.elapsed)
    return result, best


def _bench_calibration() -> tuple[dict, float]:
    """The normalization anchor: seeded RNG draws + a cumsum reduction.

    Same primitive mix as the vectorized MC kernels, so dividing a
    throughput metric by this rate cancels machine speed to first order.
    """
    n = 1 << 19

    def work():
        rng = np.random.default_rng(12345)  # dra: noqa[DRA501] reason=calibration microbenchmark: only the wall time is used, the draws never touch results
        x = rng.standard_exponential(n)
        return float(np.cumsum(x)[-1])

    _, wall = _timed(work, repeats=5)
    entry = _entry("calibration.numpy", "ops", n, wall, digest="")
    return entry, entry["per_sec"]


def _bench_sim_events(scale: float) -> dict:
    from repro.sim import Engine

    n_events = max(int(40_000 * scale), 1_000)
    periods = [1.0 + 0.1 * k for k in range(8)]

    def work():
        engine = Engine()
        fired = [0]

        def make(k: int):
            def action() -> None:
                fired[0] += 1
                if fired[0] < n_events:
                    engine.schedule_in(periods[k], action)

            return action

        for k, p in enumerate(periods):
            engine.schedule(p, make(k))
        engine.run()
        return engine

    engine, wall = _timed(work, repeats=3)
    return _entry(
        "sim.events",
        "events",
        engine.events_processed,
        wall,
        _digest(np.array([engine.events_processed, engine.now])),
    )


def _bench_sim_timeouts(scale: float) -> dict:
    """The deep, mostly-cancelled heap the chaos data path builds.

    Items arrive one per microsecond and each arms a timeout 4096 items
    out, the SRU reassembly pattern: a few arrivals later the item
    completes and cancels its timeout -- all but one in 64, which
    expire and fire.  Thousands of timeouts are outstanding at any
    time, nearly all of them lazily cancelled heap entries, which the
    8-event ``sim.events`` kernel never exercises.
    """
    from repro.sim import Engine

    n_items = max(int(60_000 * scale), 2_000)
    interval = 1e-6
    timeout = 4_096 * interval
    lag = 8

    def work():
        engine = Engine()
        handles = []
        expired = [0]

        def expire() -> None:
            expired[0] += 1

        def arrive() -> None:
            k = len(handles)
            handles.append(engine.schedule_in(timeout, expire, label="bench:timeout"))
            if k >= lag and (k - lag) % 64:
                handles[k - lag].cancel()
            if k + 1 < n_items:
                engine.schedule_in(interval, arrive, label="bench:arrive")

        engine.schedule(0.0, arrive)
        engine.run()
        return engine, expired[0]

    (engine, expired), wall = _timed(work, repeats=3)
    return _entry(
        "sim.timeouts",
        "timeouts",
        n_items,
        wall,
        _digest(np.array([engine.events_processed, engine.now, expired])),
    )


def _bench_cell_dispatch(scale: float) -> tuple[dict, dict]:
    """The fabric cell clock, batched vs its scalar reference oracle.

    Two output ports take turns receiving a stream of 32-cell packets
    (the 1500 B case) slightly faster than they drain, with two
    fabric-card failures and one repair mid-run so the burst runs split
    on ``active_fraction`` changes.  Segmentation cost is hoisted out
    of the timed region (one prototype cell run, reused) so the entry
    isolates the dispatch kernel itself.  Identical workload for both
    clocks, so the digests double as an equivalence check: delivery
    count, summed delivery times, final clock and event totals must all
    match.
    """
    from repro.router.fabric import SwitchFabric
    from repro.router.packets import CELL_PAYLOAD_BYTES, Cell
    from repro.sim import Engine
    from repro.validate.oracles import scalar_cell_clock

    n_ports = 2
    cells_per_packet = 32
    n_packets = max(int(2_000 * scale), 16)
    rate = 25e6
    interval = cells_per_packet / rate * 0.98  # queues stay mostly busy
    n_inject = n_ports * n_packets
    t_inject_end = n_inject * interval
    proto_cells = [
        Cell(
            pkt_id=0,
            seq=s,
            total=cells_per_packet,
            payload_bytes=CELL_PAYLOAD_BYTES,
            dst_lc=0,
        )
        for s in range(cells_per_packet)
    ]

    def run_clock():
        engine = Engine()
        fabric = SwitchFabric(engine, n_ports, port_rate_cells_per_s=rate)
        delivered = [0]
        time_sum = [0.0]

        def on_cell(_cell) -> None:
            delivered[0] += 1
            time_sum[0] += engine.now

        def inject(port: int) -> None:
            fabric.transfer_run(proto_cells, port, on_cell)

        # Ports inject in disjoint windows (back-to-back runs on one
        # port at a time), the shape run-batching exists for.
        for j in range(n_inject):
            engine.schedule(
                j * interval,
                (lambda p=j // n_packets: inject(p)),
                label="bench:inject",
            )
        # Mid-run card churn: burn the spare, degrade to 3/4 capacity,
        # then repair back to full -- bursts in flight must split.
        engine.schedule(0.30 * t_inject_end, lambda: fabric.fail_card(0))
        engine.schedule(0.35 * t_inject_end, lambda: fabric.fail_card(1))
        engine.schedule(0.60 * t_inject_end, lambda: fabric.repair_card(0))
        engine.run()
        return np.array(
            [delivered[0], time_sum[0], engine.now, engine.events_processed]
        )

    n_cells = n_inject * cells_per_packet
    # Alternate the clocks' repeats: the speedup ratio then compares runs
    # made under the same host load, not two blocks a second apart.
    wall_b = wall_s = float("inf")
    for _ in range(3):
        res_b, wall = _timed(run_clock)
        wall_b = min(wall_b, wall)
        with scalar_cell_clock():
            res_s, wall = _timed(run_clock)
        wall_s = min(wall_s, wall)
    batched = _entry("sim.cells.batched", "cells", n_cells, wall_b, _digest(res_b))
    scalar = _entry("sim.cells.scalar", "cells", n_cells, wall_s, _digest(res_s))
    return batched, scalar


def _bench_mc_lifetime(seed: int, jobs: int, scale: float) -> tuple[dict, dict]:
    from repro.core import DRAConfig
    from repro.runtime.montecarlo import parallel_structure_function_reliability
    from repro.validate.oracles import sample_lc_failure_times_scalar

    cfg = DRAConfig(n=9, m=4)
    times = np.linspace(0.0, 100_000.0, 11)
    n_vec = max(int(300_000 * scale), 10_000)
    n_scalar = max(int(6_000 * scale), 500)

    est, wall_vec = _timed(
        lambda: parallel_structure_function_reliability(
            cfg, times, n_vec, seed, jobs=jobs
        ),
        repeats=3,
    )
    vec = _entry(
        "mc.lifetime.vectorized",
        "trials",
        n_vec,
        wall_vec,
        _digest(est.reliability, est.std_error),
    )

    sc_times, wall_sc = _timed(
        lambda: sample_lc_failure_times_scalar(
            cfg, n_scalar, np.random.default_rng(seed)
        ),
        repeats=3,
    )
    scalar = _entry(
        "mc.lifetime.scalar", "trials", n_scalar, wall_sc, _digest(sc_times)
    )
    return vec, scalar


def _bench_mc_is(seed: int, jobs: int, scale: float) -> tuple[dict, dict]:
    from repro.core import DRAConfig, RepairPolicy
    from repro.core.availability import build_dra_availability_chain
    from repro.core.states import Failed
    from repro.runtime.montecarlo import parallel_unavailability_importance_sampling
    from repro.validate.oracles import collect_cycle_statistics_scalar

    cfg = DRAConfig(n=3, m=2)
    repair = RepairPolicy.three_hours()
    n_batched = max(int(20_000 * scale), 2_000)
    n_scalar = max(int(1_500 * scale), 200)

    res, wall_b = _timed(
        lambda: parallel_unavailability_importance_sampling(
            cfg, repair, n_batched, seed, jobs=jobs
        ),
        repeats=3,
    )
    batched = _entry(
        "mc.is.batched",
        "cycles",
        n_batched,
        wall_b,
        _digest(
            np.array(
                [res.unavailability, res.std_error, res.hit_fraction,
                 res.mean_cycle_length]
            )
        ),
    )

    chain = build_dra_availability_chain(cfg, repair)
    stats, wall_s = _timed(
        lambda: collect_cycle_statistics_scalar(
            chain, Failed, n_scalar, np.random.default_rng(seed)
        ),
        repeats=3,
    )
    scalar = _entry(
        "mc.is.scalar",
        "cycles",
        n_scalar,
        wall_s,
        _digest(
            np.array(
                [stats.length_sum, stats.length_sumsq,
                 stats.downtime_sum, stats.downtime_sumsq, float(stats.hits)]
            )
        ),
    )
    return batched, scalar


def _bench_solvers() -> list[dict]:
    from repro.core import DRAConfig, RepairPolicy
    from repro.core.availability import build_dra_availability_chain
    from repro.core.parameters import FailureRates
    from repro.core.reliability import build_dra_reliability_chain
    from repro.markov import stationary_distribution, uniformized_distribution

    entries: list[dict] = []
    grid = np.linspace(1_000.0, 100_000.0, 8)
    # A single solve of these chains is sub-millisecond -- below the
    # resolution a 15% gate can hold against scheduler jitter -- so each
    # timed measurement loops `inner` solves and reports the per-solve
    # mean of the best measurement.
    inner = 20
    for n, m in _SOLVER_CONFIGS:
        cfg = DRAConfig(n=n, m=m)
        rel = build_dra_reliability_chain(cfg, FailureRates())

        def solve_transient(c=rel):
            for _ in range(inner - 1):
                uniformized_distribution(c, grid)
            return uniformized_distribution(c, grid)

        dist, wall = _timed(solve_transient, repeats=3)
        entries.append(
            _entry(
                f"solver.transient.n{rel.n_states}",
                "states",
                rel.n_states,
                wall / inner,
                _digest(dist),
            )
        )
        avail = build_dra_availability_chain(cfg, RepairPolicy.three_hours())

        def solve_stationary(c=avail):
            for _ in range(inner - 1):
                stationary_distribution(c)
            return stationary_distribution(c)

        pi, wall = _timed(solve_stationary, repeats=3)
        entries.append(
            _entry(
                f"solver.stationary.n{avail.n_states}",
                "states",
                avail.n_states,
                wall / inner,
                _digest(pi),
            )
        )
    return entries


def run_throughput_suite(
    *, seed: int = 0, jobs: int = 1, scale: float = 1.0
) -> dict:
    """Run every throughput workload; return the full report dict.

    ``scale`` multiplies the sample budgets (CI can run lighter without
    changing the metric definitions); digests depend on ``seed`` and
    ``scale`` but never on ``jobs``.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    calibration, cal_rate = _bench_calibration()
    sim = _bench_sim_events(scale)
    cells_batched, cells_scalar = _bench_cell_dispatch(scale)
    timeouts = _bench_sim_timeouts(scale)
    lt_vec, lt_scalar = _bench_mc_lifetime(seed, jobs, scale)
    is_batched, is_scalar = _bench_mc_is(seed, jobs, scale)
    solvers = _bench_solvers()

    entries = [
        calibration, sim, timeouts, cells_batched, cells_scalar,
        lt_vec, lt_scalar, is_batched, is_scalar,
    ]
    entries.extend(solvers)

    metrics = {
        "calibration.ops_per_sec": cal_rate,
        "sim.events_per_sec": sim["per_sec"],
        "sim.timeouts_per_sec": timeouts["per_sec"],
        "sim.cells_per_sec": cells_batched["per_sec"],
        "sim.cells.speedup_vs_scalar": (
            cells_batched["per_sec"] / cells_scalar["per_sec"]
            if cells_scalar["per_sec"]
            else 0.0
        ),
        "mc.lifetime.trials_per_sec": lt_vec["per_sec"],
        "mc.lifetime.speedup_vs_scalar": (
            lt_vec["per_sec"] / lt_scalar["per_sec"] if lt_scalar["per_sec"] else 0.0
        ),
        "mc.is.cycles_per_sec": is_batched["per_sec"],
        "mc.is.speedup_vs_scalar": (
            is_batched["per_sec"] / is_scalar["per_sec"]
            if is_scalar["per_sec"]
            else 0.0
        ),
    }
    for e in solvers:
        metrics[f"{e['name']}.wall_s"] = e["wall_s"]

    return {
        "schema": THROUGHPUT_SCHEMA,
        "v": THROUGHPUT_VERSION,
        "seed": seed,
        "jobs": jobs,
        "scale": scale,
        "entries": entries,
        "metrics": metrics,
    }


def canonical_throughput_payload(report: dict) -> dict:
    """The deterministic projection of a throughput report.

    Strips everything measured (wall times, rates, speedups, ``jobs``)
    and keeps what is a pure function of ``(seed, scale)``: the schema
    header, the workload sizes, and the result digests.  Two runs of the
    same seed/scale -- at any ``--jobs`` -- serialize this projection to
    identical bytes.
    """
    return {
        "schema": report["schema"],
        "v": report["v"],
        "seed": report["seed"],
        "scale": report["scale"],
        "entries": [
            {k: e[k] for k in ("name", "unit", "items", "digest")}
            for e in report["entries"]
        ],
    }


def _metric_spec(name: str) -> tuple[str, bool] | None:
    """(mode, normalize) of a gated metric; None for ungated metrics.

    ``mode`` is ``"higher"`` (throughputs, speedups) or ``"lower"``
    (wall times); ``normalize`` says whether the calibration rate
    cancels machine speed out of the comparison.
    """
    if name == "calibration.ops_per_sec":
        return None  # the anchor itself
    if name.endswith("_per_sec"):
        return ("higher", True)
    if name.endswith(".speedup_vs_scalar"):
        return ("higher", False)
    if name.startswith("solver.") and name.endswith(".wall_s"):
        return ("lower", True)
    return None


def make_baseline(report: dict, *, threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Derive a committed-baseline document from a throughput report."""
    metrics = {}
    for name, value in sorted(report["metrics"].items()):
        spec = _metric_spec(name)
        if spec is None:
            continue
        mode, normalize = spec
        metrics[name] = {"value": value, "mode": mode, "normalize": normalize}
    return {
        "schema": BASELINE_SCHEMA,
        "v": THROUGHPUT_VERSION,
        "threshold": threshold,
        "calibration_ops_per_sec": report["metrics"]["calibration.ops_per_sec"],
        "metrics": metrics,
    }


def compare_to_baseline(
    report: dict, baseline: dict, *, threshold: float | None = None
) -> list[str]:
    """Regression messages for every gated metric worse than the baseline.

    Empty list = gate passes.  ``threshold`` overrides the baseline's
    recorded threshold.  Normalized metrics are divided (throughputs) or
    multiplied (wall times) by their run's calibration rate before the
    comparison, so baselines recorded on different hardware still gate
    meaningfully; speedup ratios compare raw.
    """
    if baseline.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"not a throughput baseline: schema={baseline.get('schema')!r}"
        )
    thr = baseline.get("threshold", DEFAULT_THRESHOLD) if threshold is None else threshold
    cal_cur = report["metrics"].get("calibration.ops_per_sec", 0.0)
    cal_base = baseline.get("calibration_ops_per_sec", 0.0)
    problems: list[str] = []
    for name, spec in sorted(baseline["metrics"].items()):
        base_value = spec["value"]
        cur_value = report["metrics"].get(name)
        if cur_value is None:
            problems.append(f"{name}: missing from the current report")
            continue
        # Express the current value in the baseline machine's units: on a
        # uniformly k x slower machine cal_cur = cal_base / k and the
        # adjustment cancels k exactly, leaving only genuine regressions.
        norm = ""
        cur, base = cur_value, base_value
        if spec.get("normalize") and cal_cur > 0.0 and cal_base > 0.0:
            cur = cur_value * (
                cal_base / cal_cur if spec["mode"] == "higher" else cal_cur / cal_base
            )
            norm = ", calibration-normalized"
        if base <= 0.0:
            continue
        if spec["mode"] == "higher":
            if cur < base * (1.0 - thr):
                problems.append(
                    f"{name}: {cur:.6g} is {1.0 - cur / base:.0%} below "
                    f"baseline {base:.6g} (threshold {thr:.0%}{norm})"
                )
        else:
            if cur > base * (1.0 + thr):
                problems.append(
                    f"{name}: {cur:.6g} is {cur / base - 1.0:.0%} above "
                    f"baseline {base:.6g} (threshold {thr:.0%}{norm})"
                )
    return problems


def render_throughput_report(report: dict) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"suite=throughput  seed={report['seed']}  jobs={report['jobs']}"
        f"  scale={report['scale']:g}",
        "",
        f"{'workload':<24} {'items':>10} {'wall (s)':>10} {'rate':>16}",
    ]
    for e in report["entries"]:
        rate = f"{e['per_sec']:,.0f} {e['unit']}/s"
        lines.append(
            f"{e['name']:<24} {e['items']:>10,} {e['wall_s']:>10.4f} {rate:>16}"
        )
    m = report["metrics"]
    lines.append("")
    lines.append(
        "speedups vs scalar reference: "
        f"sim.cells {m['sim.cells.speedup_vs_scalar']:.1f}x, "
        f"mc.lifetime {m['mc.lifetime.speedup_vs_scalar']:.1f}x, "
        f"mc.is {m['mc.is.speedup_vs_scalar']:.1f}x"
    )
    return "\n".join(lines)


def report_to_json(report: dict) -> str:
    """Canonical serialization (sorted keys, stable layout)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
