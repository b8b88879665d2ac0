"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro fig6 [--points t1,t2,...] [--csv out.csv] [--jobs N] [--cache]
    python -m repro fig7 [--configs 3:2,9:4] [--csv out.csv] [--jobs N] [--cache]
    python -m repro fig8 [--n 6] [--loads 0.15,0.7] [--b-bus 20]
    python -m repro mttf [--configs 3:2,9:4]
    python -m repro cost [--n 8] [--protocols 2]
    python -m repro importance [--n 9] [--m 4]
    python -m repro validate [--suite tiny|smoke|full] [--seed 0] [--jobs N]
    python -m repro bench [--suite scaling|throughput] [--target mc|fig6|validate]
                          [--jobs-list 1,2,4] [--baseline FILE] [--update-baseline]
    python -m repro chaos [--seeds 32] [--seed 0] [--jobs N] [--json-out FILE]
    python -m repro report [--jobs N] [--cache]
    python -m repro trace FILE [--kind PREFIX] [--limit N] [--json] [--strict]
    python -m repro incidents FILE [FILE ...] [--json-out PATH] [--jobs N]
    python -m repro lint [PATHS ...] [--select CODES] [--ignore CODES]
                         [--format text|json] [--graph-out FILE]

``validate`` runs the differential validation suite -- every analytic
quantity paired with an independent Monte Carlo / simulation estimator,
judged by confidence-interval containment -- writes a schema-versioned
``BENCH_validate.json`` and exits nonzero on disagreement, so it works
as a CI gate (``docs/validation.md``).  ``chaos`` runs seeded
fault-injection campaigns against the
executable DRA model with the EIB fault-detection layer enabled and
exits nonzero on any invariant violation (``docs/chaos.md``).  ``--jobs`` fans the work out over a process pool (0 = all
cores); Monte Carlo results are bit-identical for a given ``--seed``
regardless of ``--jobs``.  ``--cache`` enables the content-addressed
result cache (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-dra``); ``bench
--suite scaling`` (default) measures parallel scaling and writes a
schema-versioned ``BENCH_runtime.json``, while ``bench --suite
throughput`` measures the hot-path kernels (events/sec, trials/sec,
solver wall times), writes ``BENCH_throughput.json`` and -- when
``--baseline`` points at a committed baseline -- exits nonzero on a
>15% normalized regression (``docs/performance.md``).  Every subcommand accepts ``--trace PATH`` to
record a JSONL event trace (``docs/observability.md``); ``trace``
summarizes, filters and schema-checks such a file (``--strict`` also
rejects event kinds missing from the ``repro.obs.schema`` registry).
``incidents`` folds a trace into per-fault incident spans -- the causal
timeline injection -> detection -> notification -> coverage -> repair ->
re-convergence, correlated by the ``fault_id`` minted at injection --
and prints the timeline plus recovery-latency distributions (JSON report
via ``--json-out``, byte-identical for any ``--jobs``).
``lint`` runs the AST invariant linter of ``docs/static-analysis.md``
over the tree, in one process, and exits nonzero on any finding.
``--metrics-out FILE`` on any trace-capable subcommand exports the
run's metrics registry in Prometheus text format.  See ``docs/cli.md``
and ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import numpy as np

from repro.analysis import (
    format_availability_table,
    format_performance_table,
    format_reliability_table,
    performance_sweep,
    records_to_csv,
)
from repro.analysis.sweep import FIG6_CONFIGS
from repro.core import (
    DRAConfig,
    RepairPolicy,
    bdr_mttf,
    compare_designs,
    dra_availability,
    dra_mttf,
    unavailability_elasticities,
)

__all__ = ["main", "build_parser"]


def _parse_configs(text: str) -> list[tuple[int, int]]:
    """Parse 'N:M,N:M' pairs."""
    out = []
    for chunk in text.split(","):
        n_str, m_str = chunk.split(":")
        out.append((int(n_str), int(m_str)))
    return out


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _result_cache(args: argparse.Namespace):
    """The content-addressed cache when ``--cache`` was given, else None."""
    if not getattr(args, "cache", False):
        return None
    from repro.runtime import ResultCache

    return ResultCache()


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.runtime import parallel_reliability_sweep

    points = (
        _parse_floats(args.points)
        if args.points
        else [0.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0, 100_000.0]
    )
    configs = _parse_configs(args.configs) if args.configs else FIG6_CONFIGS
    recs = parallel_reliability_sweep(
        times=np.asarray(points),
        configs=configs,
        variant=args.variant,
        jobs=args.jobs,
        cache=_result_cache(args),
    )
    if args.csv:
        records_to_csv(recs, args.csv)
        print(f"wrote {args.csv}")
    print(format_reliability_table(recs, time_points=points))
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.runtime import parallel_availability_sweep

    configs = _parse_configs(args.configs) if args.configs else FIG6_CONFIGS
    recs = parallel_availability_sweep(
        configs=configs,
        variant=args.variant,
        jobs=args.jobs,
        cache=_result_cache(args),
    )
    if args.csv:
        records_to_csv(recs, args.csv)
        print(f"wrote {args.csv}")
    print(format_availability_table(recs))
    return 0


def _traced_fig8_crosscheck(n: int) -> None:
    """Exercise the executable model under the active tracer.

    The Figure 8 table itself is closed-form algebra and emits nothing,
    so when ``--trace`` is given we also run the behavioural counterparts
    of the same degradation story: a short DES run with an SRU fault
    (coverage planning plus the REQ_D/REP_D control exchange), a
    two-station probe that forces a CSMA/CD collision, and the two Markov
    solvers (uniformization and a stationary solve).  The trace then
    carries control-packet, collision, coverage-case and solver events
    next to the analytic table.
    """
    from repro.core.parameters import FailureRates
    from repro.core.reliability import build_dra_reliability_chain
    from repro.markov import uniformized_distribution
    from repro.router import ComponentKind, Router, RouterConfig, RouterMode
    from repro.router.bus import ControlChannel
    from repro.router.packets import ControlKind, ControlPacket
    from repro.sim import Engine
    from repro.traffic import wire_uniform_load

    # DES leg: an LC0 SRU fault forces coverage plans onto the EIB.
    router = Router(
        RouterConfig(n_linecards=max(4, min(n, 8)), mode=RouterMode.DRA, seed=2)
    )
    wire_uniform_load(router, 0.3)
    router.run(until=0.001)
    router.inject_fault(0, ComponentKind.SRU)
    router.run(until=0.0025)

    # Collision leg: two stations start inside the vulnerability window,
    # so both abort and back off (classic CSMA/CD).
    engine = Engine()
    bus = ControlChannel(engine, np.random.default_rng(0))
    for lc in range(3):
        bus.attach(lc, lambda _pkt: None)
    for lc in range(2):
        pkt = ControlPacket(kind=ControlKind.REQ_D, init_lc=lc, data_rate=1.0)
        engine.schedule(
            0.0,
            lambda p=pkt, s=lc: bus.broadcast(p, s),
            label=f"collision-probe-{lc}",
        )
    engine.run(until=1e-3)

    # Solver leg: Jensen's uniformization plus a stationary solve.
    cfg = DRAConfig(n=3, m=2)
    chain = build_dra_reliability_chain(cfg, FailureRates())
    uniformized_distribution(chain, np.array([1_000.0, 10_000.0]))
    dra_availability(cfg, RepairPolicy.three_hours())


def _cmd_fig8(args: argparse.Namespace) -> int:
    loads = _parse_floats(args.loads) if args.loads else [0.15, 0.30, 0.50, 0.70]
    recs = performance_sweep(loads=loads, n=args.n, b_bus=args.b_bus)
    if args.csv:
        records_to_csv(recs, args.csv)
        print(f"wrote {args.csv}")
    print(format_performance_table(recs))
    from repro.obs import get_tracer

    if get_tracer() is not None:
        _traced_fig8_crosscheck(args.n)
    return 0


def _cmd_mttf(args: argparse.Namespace) -> int:
    configs = _parse_configs(args.configs) if args.configs else [(3, 2), (9, 4)]
    base = bdr_mttf()
    print(f"{'config':>14} {'MTTF (h)':>12} {'vs BDR':>8}")
    print(f"{'BDR':>14} {base.hours:>12.0f} {'1.00x':>8}")
    for n, m in configs:
        res = dra_mttf(DRAConfig(n=n, m=m))
        print(f"{res.label:>14} {res.hours:>12.0f} {res.hours / base.hours:>7.2f}x")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    for d in compare_designs(args.n, args.protocols):
        print(f"{d.label:<24} cost {d.cost:6.2f}   A = {d.availability:.12f}")
    return 0


def _cmd_importance(args: argparse.Namespace) -> int:
    for r in unavailability_elasticities(DRAConfig(n=args.n, m=args.m)):
        print(f"{r.field:>8}  elasticity {r.elasticity:+6.3f}")
    return 0


def _cmd_claims(_args: argparse.Namespace) -> int:
    from repro.analysis.claims import check_claims

    results = check_claims()
    width = max(len(r.claim.claim_id) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.claim.claim_id:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} claims hold")
    return 1 if failed else 0


def _parse_perturb(entries: list[str] | None) -> dict[str, float]:
    """Parse repeated ``--perturb PARAM=FACTOR`` flags."""
    from repro.validate.pairs import PERTURBABLE

    perturb: dict[str, float] = {}
    for entry in entries or []:
        key, sep, factor = entry.partition("=")
        if not sep:
            raise SystemExit(f"--perturb wants PARAM=FACTOR, got {entry!r}")
        if key not in PERTURBABLE:
            raise SystemExit(
                f"--perturb parameter {key!r} unknown; "
                f"choose from {', '.join(PERTURBABLE)}"
            )
        try:
            perturb[key] = float(factor)
        except ValueError:
            raise SystemExit(
                f"--perturb factor {factor!r} is not a number"
            ) from None
    return perturb


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate.engine import render_report, report_to_json, run_suite

    report = run_suite(
        args.suite,
        seed=args.seed,
        jobs=args.jobs,
        perturb=_parse_perturb(args.perturb),
    )
    print(render_report(report))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0 if report["passed"] else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Dispatch between the scaling and throughput benchmark suites."""
    if args.bench_suite == "throughput":
        return _bench_throughput(args)
    return _bench_scaling(args)


def _bench_throughput(args: argparse.Namespace) -> int:
    """Run the hot-path throughput suite; gate against a baseline."""
    from repro.runtime.throughput import (
        compare_to_baseline,
        make_baseline,
        render_throughput_report,
        report_to_json,
        run_throughput_suite,
    )

    report = run_throughput_suite(seed=args.seed, jobs=args.jobs, scale=args.scale)
    print(render_throughput_report(report))

    json_out = "BENCH_throughput.json" if args.json_out is None else args.json_out
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        print(f"wrote {json_out}")

    if args.update_baseline:
        baseline = make_baseline(
            report,
            threshold=args.threshold if args.threshold is not None else 0.15,
        )
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote baseline {args.baseline}")
        return 0

    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        print(
            f"bench: no baseline at {args.baseline}; gate skipped "
            "(run with --update-baseline to record one)",
            file=sys.stderr,
        )
        return 0
    problems = compare_to_baseline(report, baseline, threshold=args.threshold)
    if problems:
        # Escalation, same protocol as the validate suite: one full
        # re-measurement, and only metrics that regress in BOTH runs
        # fail the gate -- squaring the probability that scheduler
        # jitter (not code) trips it.
        print(
            f"\nbench: {len(problems)} metric(s) over threshold; "
            "re-measuring once (escalation)",
            file=sys.stderr,
        )
        rerun = run_throughput_suite(
            seed=args.seed, jobs=args.jobs, scale=args.scale
        )
        confirmed_names = {
            msg.split(":", 1)[0]
            for msg in compare_to_baseline(rerun, baseline, threshold=args.threshold)
        }
        problems = [
            msg for msg in problems if msg.split(":", 1)[0] in confirmed_names
        ]
    if problems:
        print(f"\nbench: {len(problems)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for msg in problems:
            print(f"  REGRESSION {msg} (confirmed on re-measurement)",
                  file=sys.stderr)
        return 1
    print(f"\nbench: no regressions vs {args.baseline} "
          f"({len(baseline['metrics'])} gated metrics)")
    return 0


def _bench_scaling(args: argparse.Namespace) -> int:
    """Measure parallel scaling of one bulk workload over a jobs ladder."""
    from repro.runtime import (
        Stopwatch,
        parallel_reliability_sweep,
        parallel_structure_function_reliability,
        parallel_unavailability_importance_sampling,
    )

    jobs_list = _parse_ints(args.jobs_list) if args.jobs_list else [1, 2, 4]
    times = np.linspace(0.0, 100_000.0, 11)
    cfg = DRAConfig(n=9, m=4)
    rows: list[tuple[int, float, float, int]] = []
    reference = None
    for jobs in jobs_list:
        with Stopwatch() as sw:
            if args.target == "mc":
                est = parallel_structure_function_reliability(
                    cfg, times, args.trials, args.seed, jobs=jobs
                )
                payload = est.reliability
                items = args.trials
            elif args.target == "validate":
                res = parallel_unavailability_importance_sampling(
                    DRAConfig(3, 2),
                    RepairPolicy.three_hours(),
                    args.cycles,
                    args.seed,
                    jobs=jobs,
                )
                payload = np.array([res.unavailability, res.std_error])
                items = args.cycles
            else:  # fig6
                recs = parallel_reliability_sweep(jobs=jobs)
                payload = np.array([r.value for r in recs])
                items = len(recs)
        if reference is None:
            reference = payload
        elif not np.array_equal(reference, payload):
            print(f"ERROR: jobs={jobs} changed the result")
            return 1
        rows.append((jobs, sw.elapsed, items / sw.elapsed if sw.elapsed else 0.0, items))

    unit = {"mc": "trials", "validate": "cycles", "fig6": "points"}[args.target]
    base = rows[0][1]
    print(f"target={args.target}  results identical across jobs: yes\n")
    print(f"{'jobs':>5} {'wall (s)':>10} {unit + '/s':>14} {'speedup':>8}")
    for jobs, wall, rate, _items in rows:
        print(f"{jobs:>5} {wall:>10.3f} {rate:>14,.0f} {base / wall:>7.2f}x")

    json_out = "BENCH_runtime.json" if args.json_out is None else args.json_out
    if json_out:
        payload = {
            "schema": "repro-bench",
            "v": 1,
            "target": args.target,
            "unit": unit,
            "stages": [
                {
                    "stage": f"{args.target} jobs={jobs}",
                    "jobs": jobs,
                    "wall_s": wall,
                    "items": items,
                    "unit": unit,
                    "throughput_per_s": rate,
                    "speedup_vs_first": base / wall if wall else 0.0,
                }
                for jobs, wall, rate, items in rows
            ],
        }
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {json_out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Summarize, filter and schema-check a ``--trace`` JSONL file.

    Streams the file through :func:`repro.obs.iter_trace` in one pass,
    so memory stays O(distinct kinds + --limit) however large the trace.
    """
    from repro.obs import iter_trace
    from repro.obs.schema import unknown_trace_kinds

    all_kinds: set[str] = set()
    by_kind: Counter[str] = Counter()
    kept: list = []  # first --limit matching events, for printing
    t_min = t_max = None
    try:
        for ev in iter_trace(args.file):
            all_kinds.add(ev.kind)
            if args.kind and not ev.kind.startswith(args.kind):
                continue
            by_kind[ev.kind] += 1
            if ev.t is not None:
                t_min = ev.t if t_min is None else min(t_min, ev.t)
                t_max = ev.t if t_max is None else max(t_max, ev.t)
            if args.limit and len(kept) < args.limit:
                kept.append(ev)
    except (OSError, ValueError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 1
    unknown = unknown_trace_kinds(all_kinds)
    if unknown:
        print(
            f"trace warning: {len(unknown)} kind(s) not in the "
            f"repro.obs.schema registry: {', '.join(unknown)}",
            file=sys.stderr,
        )
        if args.strict:
            print(
                "trace error: --strict requires every event kind to be "
                "registered (see docs/observability.md)",
                file=sys.stderr,
            )
            return 1
    n_events = sum(by_kind.values())
    span = (t_min, t_max) if t_min is not None else None
    if args.json:
        print(
            json.dumps(
                {
                    "file": args.file,
                    "v": 1,
                    "events": n_events,
                    "kinds": dict(sorted(by_kind.items())),
                    "time_span_s": list(span) if span else None,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if args.limit:
        for ev in kept:
            print(ev.to_json())
        print()
    print(f"{args.file}: {n_events} events, {len(by_kind)} kinds (schema v1 ok)")
    if span:
        print(f"sim-time span: {span[0]:.6g} s .. {span[1]:.6g} s")
    if by_kind:
        width = max(len(k) for k in by_kind)
        for kind, count in sorted(by_kind.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"  {kind:<{width}}  {count:>8}")
    return 0


def _fold_trace_file(path: str) -> dict:
    """Fold one trace file into its incidents report (pool worker).

    A pure function of the file contents -- spans are folded in trace
    order and the report serializes with sorted keys -- so the output is
    byte-identical whatever ``--jobs`` grouping dispatched it.
    """
    from repro.obs import (
        SpanBuilder,
        build_incident_report,
        build_scorecards,
        iter_trace,
    )

    spans = SpanBuilder().feed_all(iter_trace(path)).spans()
    report = build_incident_report(spans, source=path)
    report["health"] = build_scorecards(spans)
    return report


def _us(t: float | None) -> str:
    """Microsecond rendering of an optional timestamp/latency."""
    return "-" if t is None else f"{t * 1e6:.1f}"


def _print_incident_report(report: dict) -> None:
    """Human-readable timeline + latency + scorecard view of one report."""
    totals = report["totals"]
    print(
        f"{report['source']}: {totals['spans']} incident span(s), "
        f"{totals['open']} open, {totals['undetected']} undetected"
    )
    if totals["spans"]:
        print(
            f"  {'fault':>5} {'lc':>4} {'component':<10} {'mode':<12} "
            f"{'inject':>9} {'detect':>9} {'remote':>9} {'plan':>9} "
            f"{'cover':>9} {'repair':>9} {'converge':>9}  (us)"
        )
    for span in report["spans"]:
        ph = span["phases"]
        lc = "eib" if span["lc"] is None else span["lc"]
        print(
            f"  {span['fault_id']:>5} {lc:>4} {span['component']:<10} "
            f"{span['mode']:<12} {_us(ph['injected']):>9} "
            f"{_us(ph['first_local_detect']):>9} "
            f"{_us(ph['first_remote_view']):>9} {_us(ph['plan_issued']):>9} "
            f"{_us(ph['coverage_active']):>9} {_us(ph['repaired']):>9} "
            f"{_us(ph['views_converged']):>9}"
        )
    print("  recovery latencies (us):")
    for name, dist in report["latencies"].items():
        if dist["count"] == 0:
            print(f"    {name:<24} n=0")
            continue
        print(
            f"    {name:<24} n={dist['count']:<4} mean={_us(dist['mean']):>8} "
            f"p50={_us(dist['p50']):>8} p95={_us(dist['p95']):>8} "
            f"max={_us(dist['max']):>8}"
        )
    health = report.get("health") or {}
    if health:
        print(
            f"  {'lc':>4} {'faults':>7} {'flap_rate':>10} "
            f"{'mean_detect_us':>15} {'duty_cycle':>11} {'open':>5} "
            f"{'undet':>6}"
        )
        for lc, card in health.items():
            mean_det = card["mean_detection_latency_s"]
            print(
                f"  {lc:>4} {card['faults']:>7} {card['flap_rate']:>10.3f} "
                f"{_us(mean_det):>15} {card['coverage_duty_cycle']:>11.4f} "
                f"{card['open']:>5} {card['undetected']:>6}"
            )


def _cmd_incidents(args: argparse.Namespace) -> int:
    """Fold trace file(s) into per-fault incident spans and report."""
    from repro.runtime import metered_parallel_map

    try:
        reports = metered_parallel_map(
            _fold_trace_file, list(args.files), jobs=args.jobs
        )
    except (OSError, ValueError) as exc:
        print(f"incidents error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        _print_incident_report(report)
    if args.json_out:
        payload: dict
        if len(reports) == 1:
            payload = reports[0]
        else:
            payload = {
                "schema": "repro-incidents",
                "version": 1,
                "reports": reports,
            }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded chaos campaign; nonzero exit on invariant violations."""
    from repro.chaos import CampaignConfig, run_campaign
    from repro.chaos.detection import DetectionConfig
    from repro.obs import get_tracer, set_tracer

    detection = DetectionConfig(
        coverage=args.coverage, detection_latency_s=args.detection_latency
    )
    cfg = CampaignConfig(
        seeds=args.seeds,
        base_seed=args.seed,
        duration_s=args.duration,
        accel=args.accel,
        detection=detection,
        coverage_policy=args.coverage_policy,
    )

    # Campaign workers fork from this process; a file-backed tracer must
    # not be inherited (all workers would interleave writes into one fd).
    # Run the campaign untraced, then re-run schedule 0 in-process under
    # the tracer so ``--trace`` still yields a representative event log.
    tracer = get_tracer()
    if tracer is not None:
        set_tracer(None)
    try:
        report = run_campaign(cfg, jobs=args.jobs)
    finally:
        if tracer is not None:
            set_tracer(tracer)
    if tracer is not None:
        from repro.chaos import run_schedule

        run_schedule(cfg, 0)

    totals = report["totals"]
    print(
        f"chaos: {cfg.seeds} schedules  offered {totals['offered']}  "
        f"delivered {totals['delivered']}  dropped {totals['dropped']}"
    )
    print(
        f"  detections {totals['detections']}  ctl lost/corrupted/abandoned "
        f"{totals['ctl_lost']}/{totals['ctl_corrupted']}/{totals['ctl_abandoned']}"
    )
    for sched in report["schedules"]:
        for v in sched["violations"]:
            print(
                f"  VIOLATION seed={sched['seed']} [{v['check']}] {v['detail']}",
                file=sys.stderr,
            )
    print(f"  invariant violations: {totals['violations']}")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    return 1 if totals["violations"] else 0


def _parse_codes(text: str | None) -> frozenset[str] | None:
    """Parse a ``--select``/``--ignore`` comma-separated code list."""
    if not text:
        return None
    return frozenset(code.strip() for code in text.split(",") if code.strip())


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST invariant linter; nonzero exit on any finding."""
    from repro.lint import UnknownSelectorError, lint_paths
    from repro.obs import MetricsRegistry, collecting

    registry = MetricsRegistry()
    try:
        with collecting(registry):
            report = lint_paths(
                args.paths,
                select=_parse_codes(args.select),
                ignore=_parse_codes(args.ignore),
                graph_out=args.graph_out,
            )
    except UnknownSelectorError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    # timing goes to stderr: stdout (text or JSON) must stay
    # byte-identical across runs
    print(f"lint: wall {report.wall_ms:.1f} ms", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    for finding in report.findings:
        print(finding.render())
    summary = (
        f"lint: {report.files} files, {len(report.findings)} finding(s), "
        f"{report.suppressed} suppressed "
        f"({len(report.selected)} rules active)"
    )
    if report.ok:
        print(summary)
        return 0
    print(f"{summary} -- FAIL", file=sys.stderr)
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    print(generate_report(jobs=args.jobs, cache=_result_cache(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser.

    Exposed separately from :func:`main` so tests and the docs-freshness
    check can introspect the complete subcommand/flag surface without
    executing anything.
    """
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate DRA (ICPP 2004) paper artifacts."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runtime_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (0 = all cores; default 1 = serial)")
        p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="content-addressed result cache "
                            "($REPRO_CACHE_DIR or ~/.cache/repro-dra)")

    def add_trace_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="record a JSONL event trace to PATH "
                            "(see docs/observability.md)")
        p.add_argument("--metrics-out", dest="metrics_out", metavar="FILE",
                       default=None,
                       help="export the run's metrics registry to FILE in "
                            "Prometheus text format (docs/observability.md)")

    p = sub.add_parser("fig6", help="Figure 6 reliability table")
    p.add_argument("--points", help="comma-separated hours")
    p.add_argument("--configs", help="N:M pairs, e.g. 3:2,9:4")
    p.add_argument("--variant", default="paper",
                   choices=["paper", "strict", "extended"],
                   help="model-interpretation variant (see DESIGN.md)")
    p.add_argument("--csv", help="also write records to CSV")
    add_runtime_flags(p)
    add_trace_flag(p)
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("fig7", help="Figure 7 availability table")
    p.add_argument("--configs", help="N:M pairs")
    p.add_argument("--variant", default="paper",
                   choices=["paper", "strict", "extended"],
                   help="model-interpretation variant (see DESIGN.md)")
    p.add_argument("--csv", help="also write records to CSV")
    add_runtime_flags(p)
    add_trace_flag(p)
    p.set_defaults(func=_cmd_fig7)

    p = sub.add_parser("fig8", help="Figure 8 degradation table")
    p.add_argument("--n", type=int, default=6,
                   help="number of linecards N")
    p.add_argument("--loads", help="comma-separated loads in [0,1)")
    p.add_argument("--b-bus", type=float, default=None, dest="b_bus",
                   help="EIB bus bandwidth in Mbps (default: the paper's)")
    p.add_argument("--csv", help="also write records to CSV")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_fig8)

    p = sub.add_parser("mttf", help="MTTF table")
    p.add_argument("--configs", help="N:M pairs")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_mttf)

    p = sub.add_parser("cost", help="cost-effectiveness comparison")
    p.add_argument("--n", type=int, default=8,
                   help="number of linecards N")
    p.add_argument("--protocols", type=int, default=2,
                   help="protocols per linecard for the DRA design")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("importance", help="rate-elasticity tornado")
    p.add_argument("--n", type=int, default=9,
                   help="number of linecards N")
    p.add_argument("--m", type=int, default=4,
                   help="protocol multiplicity M")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("claims", help="check every quoted paper claim")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_claims)

    p = sub.add_parser(
        "validate",
        help="differential sim-vs-analytic validation suite",
    )
    p.add_argument("--suite", default="smoke",
                   choices=["tiny", "smoke", "full"],
                   help="pair set and sample budgets (default smoke)")
    p.add_argument("--seed", type=int, default=0,
                   help="root seed; the report is byte-identical "
                        "for any --jobs")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = all cores; default 1 = serial)")
    p.add_argument("--json-out", dest="json_out",
                   default="BENCH_validate.json", metavar="PATH",
                   help="machine-readable report "
                        "(default BENCH_validate.json; empty string disables)")
    p.add_argument("--perturb", action="append", metavar="PARAM=FACTOR",
                   help="scale an analytic-model parameter (repeatable); "
                        "a correct harness must then FAIL -- "
                        "e.g. --perturb lam_lpi=1.5")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bench", help="performance benchmarks (scaling/throughput)")
    p.add_argument("--suite", dest="bench_suite", default="scaling",
                   choices=["scaling", "throughput"],
                   help="scaling: one workload over a --jobs-list ladder; "
                        "throughput: the hot-path kernel suite with the "
                        "perf-regression gate (docs/performance.md)")
    p.add_argument("--target", default="mc", choices=["mc", "fig6", "validate"],
                   help="scaling workload: structure-function MC batch, the "
                        "Figure 6 sweep, or the importance-sampling check")
    p.add_argument("--jobs-list", dest="jobs_list",
                   help="comma-separated worker counts for --suite scaling "
                        "(default 1,2,4)")
    p.add_argument("--trials", type=int, default=1_000_000,
                   help="MC trials for --target mc")
    p.add_argument("--cycles", type=int, default=30_000,
                   help="cycles for --target validate")
    p.add_argument("--seed", type=int, default=0,
                   help="root seed; digests in the throughput report are "
                        "a pure function of it")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for --suite throughput "
                        "(0 = all cores; default 1 = serial)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="sample-budget multiplier for --suite throughput "
                        "(CI uses <1 for a lighter run)")
    p.add_argument("--baseline", metavar="FILE",
                   default="benchmarks/BASELINE_throughput.json",
                   help="committed throughput baseline to gate against "
                        "(missing file skips the gate)")
    p.add_argument("--update-baseline", dest="update_baseline",
                   action="store_true",
                   help="rewrite --baseline from this run instead of gating "
                        "(see docs/performance.md for when that is legitimate)")
    p.add_argument("--threshold", type=float, default=None,
                   help="override the baseline's recorded regression "
                        "threshold (fraction, e.g. 0.15)")
    p.add_argument("--json-out", dest="json_out", default=None,
                   metavar="PATH",
                   help="machine-readable report (default BENCH_runtime.json "
                        "or BENCH_throughput.json per suite; empty string "
                        "disables)")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("chaos", help="seeded fault-injection campaign")
    p.add_argument("--seeds", type=int, default=32,
                   help="number of independent fault schedules")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign base seed; schedule seeds derive from it "
                        "and results are identical for any --jobs")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = all cores; default 1 = serial)")
    p.add_argument("--duration", type=float, default=0.004,
                   help="traffic+fault window per schedule (s)")
    p.add_argument("--accel", type=float, default=1e7,
                   help="failure-rate acceleration factor")
    p.add_argument("--coverage", type=float, default=1.0,
                   help="self-test coverage factor c in [0,1]")
    p.add_argument("--detection-latency", dest="detection_latency",
                   type=float, default=10e-6,
                   help="minimum fault age before self-test detection (s)")
    p.add_argument("--coverage-policy", dest="coverage_policy",
                   choices=("static", "adaptive"), default="static",
                   help="planner v2 LC_inter selection policy: static "
                        "(paper's slot-rank first-fit) or adaptive "
                        "(headroom/health/spread scoring with replanning "
                        "and fair degradation)")
    p.add_argument("--json-out", dest="json_out", default="",
                   metavar="PATH", help="write the full campaign report as JSON")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("report", help="full Markdown evaluation report")
    add_runtime_flags(p)
    add_trace_flag(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("trace", help="summarize/filter a --trace JSONL file")
    p.add_argument("file", help="trace file written by --trace PATH")
    p.add_argument("--kind", metavar="PREFIX",
                   help="only events whose kind starts with PREFIX")
    p.add_argument("--limit", type=int, default=0, metavar="N",
                   help="also print the first N matching events as JSONL")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary instead of the table")
    p.add_argument("--strict", action="store_true",
                   help="also fail on event kinds missing from the "
                        "repro.obs.schema registry (the CI guard mode)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "incidents",
        help="fold a --trace file into per-fault incident spans",
    )
    p.add_argument("files", nargs="+", metavar="FILE",
                   help="trace file(s) written by --trace PATH")
    p.add_argument("--json-out", dest="json_out", default="", metavar="PATH",
                   help="write the repro-incidents v1 report as JSON "
                        "(byte-identical for any --jobs)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes folding files in parallel "
                        "(0 = all cores; default 1 = serial)")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_incidents)

    p = sub.add_parser(
        "lint",
        help="AST invariant linter (determinism/observability contracts)",
    )
    p.add_argument("paths", nargs="*",
                   default=["src", "tests", "benchmarks", "examples"],
                   help="files/directories to scan (default: the repo tree)")
    p.add_argument("--select", metavar="CODES",
                   help="comma-separated rule codes or prefixes to run "
                        "(e.g. DRA101,DRA5); default: every rule; a "
                        "prefix matching no rule is a usage error")
    p.add_argument("--ignore", metavar="CODES",
                   help="comma-separated rule codes or prefixes to skip "
                        "(DRA5 skips the whole-project flow pass)")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="findings as one line each, or a schema-versioned "
                        "JSON document")
    p.add_argument("--graph-out", dest="graph_out", metavar="FILE",
                   default=None,
                   help="export the project call graph as schema-versioned "
                        "JSON (repro-callgraph v1; byte-identical across "
                        "runs)")
    add_trace_flag(p)
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from contextlib import ExitStack

    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    registry = None
    with ExitStack() as stack:
        if metrics_out:
            from repro.obs import MetricsRegistry, collecting

            registry = MetricsRegistry()
            stack.enter_context(collecting(registry))
        if trace_path:
            from repro.obs import tracing

            stack.enter_context(tracing(trace_path))
        rc = args.func(args)
    if trace_path:
        print(f"wrote trace {trace_path}", file=sys.stderr)
    if registry is not None:
        from repro.obs import write_prometheus

        write_prometheus(registry, metrics_out)
        print(f"wrote metrics {metrics_out}", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
