"""End-to-end and per-layer benchmark of the DRA reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload chaos --seed 0 --seconds 25 --trace 0

Workloads (see README.md): ``chaos``, ``chaos-observed`` and ``paper``.
Every process this starts is a fresh interpreter running ``worker.py``
with ``PYTHONPATH=src``, one operation stream at a time (``jobs=1``).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
same untraced run and then profiles the very same operations with
``profiler.py``, reporting the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import PROBE_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chaos", "chaos-observed", "paper")
#: Set-up samples per run (fresh interpreters that import and configure).
SETUP_SAMPLES = 5
#: Operation inputs handed to a worker; more than any run can finish.
MAX_OPS = 256
#: Seconds a single worker may take before the run is abandoned.
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a crashed worker)."""


class Runner:
    """Spawns workers for one workload and collects their records."""

    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        self.out = os.path.join(root, ".perfbench_out")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.setup_s: list[float] = []
        self.modules: list[int] = []
        self.rss_mb: list[float] = []
        self.done: list[dict] = []

    def worker(self, ops: list[int], seconds: float, profile: str = "") -> list[dict]:
        """Run one worker; returns its operation records."""
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload,
            "--ops", ",".join(str(op) for op in ops),
            "--seconds", repr(seconds),
            "--tmp", self.tmp,
            "--expected", self.args.expected,
        ]
        if self.args.perturb:
            cmd += ["--perturb", self.args.perturb]
        if profile:
            cmd += ["--profile", profile]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, cwd=self.root, env=self.env
        )
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        records: list[dict] = []
        try:
            for line in proc.stdout:
                rec = json.loads(line)
                if rec.get("ready"):
                    self.setup_s.append(time.perf_counter() - t0)
                    self.modules.append(rec["modules"])
                elif rec.get("done"):
                    self.rss_mb.append(rec["rss_mb"])
                    self.done.append(rec)
                else:
                    records.append(rec)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with code {code} (killed after "
                             f"{WORKER_TIMEOUT_S} s if negative)")
        return records

    def measured(self, specs: list[int]) -> list[dict]:
        """The untraced run: operations for ``--seconds`` seconds."""
        seconds = float(self.args.seconds)
        if self.args.workload != "paper":
            return self.worker(specs, seconds)
        # Each paper pass is a fresh process, as each CLI call is.
        records: list[dict] = []
        start = time.perf_counter()
        for spec in specs:
            records += self.worker([spec], 0.0)
            if time.perf_counter() - start >= seconds:
                break
        return records

    def profiled(self, records: list[dict]) -> list[dict]:
        """The traced run over exactly the operations of ``records``."""
        os.makedirs(self.out, exist_ok=True)
        ops = [rec["op"] for rec in records]
        stem = os.path.join(self.out, f"spans-{self.args.workload}")
        for old in glob.glob(stem + "*.npz"):
            os.remove(old)
        if self.args.workload != "paper":
            return self.worker(ops, float("inf"), profile=stem + ".npz")
        traced: list[dict] = []
        for i, op in enumerate(ops):
            traced += self.worker([op], 0.0, profile=f"{stem}-pass{i}.npz")
        return traced

    def setup_probes(self) -> None:
        """Top the set-up samples up to :data:`SETUP_SAMPLES`."""
        while len(self.setup_s) < SETUP_SAMPLES:
            self.worker([], 0.0)


def _quantity(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, records: list[dict]) -> dict:
    """Medians over the run's operations and set-ups; peak worker memory.
    Operation times are rescaled to the reference host speed."""
    return {
        "setup_s": _quantity(statistics.median(runner.setup_s), "s"),
        "wall_ref_s": _quantity(
            statistics.median(r["wall"] * r["scale"] for r in records), "s"
        ),
        "cpu_ref_s": _quantity(
            statistics.median(r["cpu"] * r["scale"] for r in records), "s"
        ),
        "peak_rss_mb": _quantity(max(runner.rss_mb), "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    runner: Runner, records: list[dict], traced: list[dict], error_rate: float
) -> dict:
    """Layer metrics of the traced run, per operation unless a ratio."""
    n_ops = len(traced)
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    counts: dict[str, float] = {}
    for done in runner.done:
        for src, dst in (
            (done.get("self_s", {}), self_s),
            (done.get("calls", {}), calls),
            (done.get("counts", {}), counts),
            (done.get("registry", {}), counts),
        ):
            for key, value in src.items():
                dst[key] = dst.get(key, 0.0) + value
    for rec in traced:
        for key, value in rec["stats"].items():
            counts[key] = counts.get(key, 0.0) + value

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    def per_op(value: float) -> float:
        return value / n_ops

    traced_wall = sum(r["wall"] for r in traced)
    untraced_wall = sum(r["wall"] for r in records)
    root_s = sum(done["root_s"] for done in runner.done if "root_s" in done)
    layers = {
        "sim.events": (per_op(c("sim.events")), "count"),
        "sim.cancelled": (per_op(c("sim.cancelled")), "count"),
        "sim.self_s": (per_op(self_s["sim"]), "s"),
        "sim.us_per_event": (_ratio(self_s["sim"], c("sim.events")) * 1e6, "us"),
        "traffic.packets": (per_op(c("traffic.packets")), "count"),
        "traffic.self_s": (per_op(self_s["traffic"]), "s"),
        "router.delivered": (per_op(c("router.delivered")), "count"),
        "router.dropped": (per_op(c("router.dropped")), "count"),
        "router.delivered_frac": (
            _ratio(c("router.delivered"), c("traffic.packets")), "fraction"
        ),
        "router.self_s": (per_op(self_s["router"]), "s"),
        "fabric.cells": (per_op(c("fabric.cells")), "count"),
        "fabric.cells_dropped": (per_op(c("fabric.cells_dropped")), "count"),
        "fabric.self_s": (per_op(self_s["fabric"]), "s"),
        "reassembly.cells": (per_op(c("reassembly.cells")), "count"),
        "reassembly.self_s": (per_op(self_s["reassembly"]), "s"),
        "eib.ctl.sent": (per_op(c("eib.ctl.sent")), "count"),
        "eib.ctl.collisions": (per_op(c("eib.ctl.collisions")), "count"),
        "eib.ctl.ok_frac": (_ratio(c("eib.ctl.sent"), c("eib.ctl.attempts")), "fraction"),
        "eib.ctl.self_s": (per_op(self_s["eib.ctl"]), "s"),
        "eib.data.grants": (per_op(c("bus.tdm.grants")), "count"),
        "eib.data.dropped": (per_op(c("bus.data.dropped")), "count"),
        "eib.data.self_s": (per_op(self_s["eib.data"]), "s"),
        "protocol.streams": (per_op(c("protocol.streams")), "count"),
        "protocol.streams_failed": (per_op(c("protocol.streams_failed")), "count"),
        "protocol.self_s": (per_op(self_s["protocol"]), "s"),
        "detect.detections": (per_op(c("detect.detections")), "count"),
        "detect.self_s": (per_op(self_s["detect"]), "s"),
        "faults.injected": (per_op(c("faults.injected")), "count"),
        "faults.self_s": (per_op(self_s["faults"]), "s"),
        "chaos.invariants_s": (per_op(self_s["chaos"]), "s"),
        "chaos.violations": (per_op(c("chaos.violations")), "count"),
        "obs.trace.events": (per_op(c("obs.trace.events")), "count"),
        "obs.trace.bytes": (per_op(c("obs.trace.bytes")), "bytes"),
        "obs.trace.emit_s": (per_op(self_s["obs.trace"]), "s"),
        "obs.spans.spans": (per_op(c("obs.spans.spans")), "count"),
        "obs.spans.fold_s": (per_op(self_s["obs.spans"]), "s"),
        "markov.solves": (per_op(calls["markov"]), "count"),
        "markov.terms": (
            per_op(c("solver.uniformization.iterations") + c("solver.stationary.iterations")),
            "count",
        ),
        "markov.self_s": (per_op(self_s["markov"]), "s"),
        "montecarlo.samples": (
            per_op(c("montecarlo.lifetimes") + c("mc.is.cycles")), "count"
        ),
        "montecarlo.rare_hit_frac": (_ratio(c("mc.is.rare_hits"), c("mc.is.cycles")), "fraction"),
        "montecarlo.self_s": (per_op(self_s["montecarlo"]), "s"),
        "validate.pairs": (per_op(c("validate.pairs.evaluated")), "count"),
        "validate.escalations": (per_op(c("validate.escalations")), "count"),
        "validate.self_s": (per_op(self_s["validate"]), "s"),
        "analysis.self_s": (per_op(self_s["analysis"]), "s"),
        "runtime.cache.hits": (per_op(c("runtime.cache.hits")), "count"),
        "runtime.cache.misses": (per_op(c("runtime.cache.misses")), "count"),
        "runtime.cache.self_s": (per_op(self_s["runtime.cache"]), "s"),
        "runtime.sweeps.self_s": (per_op(self_s["runtime.sweeps"]), "s"),
        "import.modules": (statistics.median(runner.modules), "count"),
        "profile.wall_s": (per_op(root_s), "s"),
        "profile.overhead_frac": (_ratio(traced_wall, untraced_wall) - 1.0, "fraction"),
        "profile.unattributed_s": (per_op(self_s["op"] + self_s["other"]), "s"),
        "wall_s": (statistics.median(r["wall"] for r in records), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in records), "s"),
        "host.probe_ms": (
            statistics.median(PROBE_REF_S / r["scale"] for r in records) * 1e3, "ms"
        ),
        "error_rate": (error_rate, "fraction"),
        "trace_mb": (
            sum(r["stats"].get("obs.trace.bytes", 0) for r in records) / 1e6 / len(records),
            "MB",
        ),
    }
    return {name: _quantity(value, unit) for name, (value, unit) in layers.items()}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS, help="workload name")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=int, default=25, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="recorded outputs to check against")
    parser.add_argument("--perturb", default="",
                        help="paper: run the validate suite with perturbation K=V "
                             "(gate self-test)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args)
    os.makedirs(runner.tmp, exist_ok=True)
    try:
        from workloads import op_specs

        with open(args.expected, encoding="utf-8") as fh:
            pool = len(json.load(fh)["chaos"])
        specs = op_specs(args.workload, args.seed, MAX_OPS, pool)
        records = runner.measured(specs)
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        if args.trace:
            traced = runner.profiled(records)
            digests = [r["digest"] for r in traced]
            for i, rec in enumerate(records):
                attempted += 1
                if digests[i:i + 1] != [rec["digest"]]:
                    failed += 1
                    rec["errors"].append(f"op {rec['op']}: traced run changed the outputs")
            metrics = per_layer(runner, records, traced, failed / attempted)
        else:
            runner.setup_probes()
            metrics = end_to_end(runner, records)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(runner.tmp))
    for rec in records:
        print(f"perfbench: op {rec['op']} wall {rec['wall']:.4f} s cpu {rec['cpu']:.4f} s",
              file=sys.stderr)
        for err in rec["errors"]:
            print(f"perfbench: FAILED {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
