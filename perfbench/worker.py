"""One benchmark process: set a workload up, then run its operations.

Started by ``run.py`` as a fresh interpreter, so set-up pays real import
costs and no process-wide cache survives from an earlier process.  It
writes one JSON object per line to stdout: ``ready`` once set-up is
done, one record per operation, and ``done`` with its peak memory (and,
under ``--profile``, the layer totals of the traced run).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

_MODULES_AT_START = len(sys.modules)


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, help="workload name")
    parser.add_argument("--ops", default="", help="comma-separated operation inputs")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="start no operation after this many seconds")
    parser.add_argument("--tmp", required=True, help="scratch directory for the run")
    parser.add_argument("--expected", required=True, help="recorded outputs (JSON)")
    parser.add_argument("--perturb", default="", help="paper: validate perturbation K=V")
    parser.add_argument("--profile", default="",
                        help="trace layers and write the spans to this .npz path")
    return parser.parse_args(argv)


def _run_ops(workload, specs: list[int], seconds: float, prof) -> None:
    """Run ``specs`` in order, one record each, until ``seconds`` pass
    (at least one operation).  Untraced operations run under the host-speed
    probe; their times exclude the probes'."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    start = time.perf_counter()
    for spec in specs:
        if prof is None:
            host.start()
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            if prof is None:
                res = workload.run_op(spec)
            else:
                res = prof.op(workload.run_op, spec)
        finally:
            host.stop()
        wall = time.perf_counter() - t0 - sum(host.wall)
        cpu = time.process_time() - c0 - sum(host.cpu)
        stats = res.stats if prof is None else {**res.stats, **prof.take_des_counts()}
        record = {
            "op": spec, "wall": wall, "cpu": cpu, "attempted": res.attempted,
            "failed": res.failed, "errors": res.errors, "digest": res.digest,
            "stats": stats,
        }
        if prof is None:
            record["scale"] = host.scale()
        _emit(record)
        if time.perf_counter() - start >= seconds:
            break


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    import workloads

    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)
    perturb = {}
    if args.perturb:
        key, _, factor = args.perturb.partition("=")
        perturb[key] = float(factor)
    workload = workloads.setup(args.workload, expected, args.tmp, perturb)
    _emit({"ready": True, "modules": len(sys.modules) - _MODULES_AT_START})

    specs = [int(s) for s in args.ops.split(",") if s]
    done: dict = {"done": True}
    if not args.profile:
        _run_ops(workload, specs, args.seconds, None)
    else:
        from profiler import Profiler

        from repro.obs import metrics

        prof = Profiler()
        prof.install()
        prof.span_function(workloads.fold_trace, "obs.spans")
        try:
            with metrics.collecting() as registry:
                _run_ops(workload, specs, args.seconds, prof)
        finally:
            prof.close()
        done["root_s"] = prof.spans.root_total()
        done["self_s"] = prof.spans.self_times()
        done["calls"] = prof.spans.calls()
        done["counts"] = dict(prof.counts)
        done["registry"] = {
            name: m["value"]
            for name, m in registry.snapshot()["metrics"].items()
            if m["type"] == "counter"
        }
        prof.spans.write(args.profile)
    done["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
