"""Throughput suite + perf-regression gate tests (docs/benchmarks.md).

The suite runs at tiny ``scale`` here: the schema, determinism and gate
logic under test are scale-invariant; only the speedup-floor test needs
a budget large enough for stable timing.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.runtime.throughput import (
    BASELINE_SCHEMA,
    THROUGHPUT_SCHEMA,
    THROUGHPUT_VERSION,
    canonical_throughput_payload,
    compare_to_baseline,
    make_baseline,
    run_throughput_suite,
)

ENTRY_FIELDS = {"name", "unit", "items", "wall_s", "per_sec", "digest"}


@pytest.fixture(scope="module")
def report():
    return run_throughput_suite(seed=0, jobs=1, scale=0.02)


class TestSuiteReport:
    def test_schema_header(self, report):
        assert report["schema"] == THROUGHPUT_SCHEMA
        assert report["v"] == THROUGHPUT_VERSION
        assert report["seed"] == 0 and report["jobs"] == 1

    def test_entries_cover_every_hot_path(self, report):
        names = {e["name"] for e in report["entries"]}
        assert {
            "calibration.numpy", "sim.events", "sim.timeouts",
            "sim.cells.batched", "sim.cells.scalar",
            "mc.lifetime.vectorized", "mc.lifetime.scalar",
            "mc.is.batched", "mc.is.scalar",
        } <= names
        assert sum(n.startswith("solver.") for n in names) == 6
        for e in report["entries"]:
            assert set(e) == ENTRY_FIELDS
            assert e["items"] > 0 and e["per_sec"] > 0.0

    def test_metrics_present(self, report):
        m = report["metrics"]
        for key in (
            "calibration.ops_per_sec", "sim.events_per_sec",
            "sim.timeouts_per_sec",
            "sim.cells_per_sec", "sim.cells.speedup_vs_scalar",
            "mc.lifetime.trials_per_sec", "mc.lifetime.speedup_vs_scalar",
            "mc.is.cycles_per_sec", "mc.is.speedup_vs_scalar",
        ):
            assert m[key] > 0.0
        assert sum(k.startswith("solver.") for k in m) == 6

    def test_cell_dispatch_digests_agree(self, report):
        # The cell entry runs the identical workload under both dispatch
        # modes; equal digests mean equal delivery counts, summed
        # delivery timestamps, final clock and event totals -- the
        # equivalence oracle rides inside the benchmark itself.
        digests = {e["name"]: e["digest"] for e in report["entries"]}
        assert digests["sim.cells.batched"] == digests["sim.cells.scalar"]

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            run_throughput_suite(scale=0.0)


class TestCanonicalPayload:
    def test_projection_drops_measured_fields(self, report):
        payload = canonical_throughput_payload(report)
        assert "jobs" not in payload and "metrics" not in payload
        for e in payload["entries"]:
            assert set(e) == {"name", "unit", "items", "digest"}

    def test_identical_across_jobs(self, report):
        other = run_throughput_suite(seed=0, jobs=2, scale=0.02)
        assert json.dumps(
            canonical_throughput_payload(report), sort_keys=True
        ) == json.dumps(canonical_throughput_payload(other), sort_keys=True)

    def test_seed_changes_digests(self, report):
        other = run_throughput_suite(seed=1, jobs=1, scale=0.02)
        mine = {e["name"]: e["digest"] for e in report["entries"]}
        theirs = {e["name"]: e["digest"] for e in other["entries"]}
        assert mine["mc.lifetime.vectorized"] != theirs["mc.lifetime.vectorized"]
        assert mine["mc.is.batched"] != theirs["mc.is.batched"]


class TestGate:
    def test_baseline_document(self, report):
        baseline = make_baseline(report)
        assert baseline["schema"] == BASELINE_SCHEMA
        assert baseline["threshold"] == 0.15
        specs = baseline["metrics"]
        assert "calibration.ops_per_sec" not in specs  # the anchor is ungated
        assert specs["sim.events_per_sec"] == {
            "value": report["metrics"]["sim.events_per_sec"],
            "mode": "higher", "normalize": True,
        }
        assert specs["sim.cells_per_sec"] == {
            "value": report["metrics"]["sim.cells_per_sec"],
            "mode": "higher", "normalize": True,
        }
        assert specs["sim.cells.speedup_vs_scalar"]["normalize"] is False
        assert specs["mc.is.speedup_vs_scalar"]["normalize"] is False
        for name, spec in specs.items():
            if name.startswith("solver."):
                assert spec["mode"] == "lower"

    def test_self_comparison_passes(self, report):
        assert compare_to_baseline(report, make_baseline(report)) == []

    def test_slowed_run_fails(self, report):
        baseline = make_baseline(report)
        slowed = copy.deepcopy(report)
        for name in list(slowed["metrics"]):
            if name == "calibration.ops_per_sec":
                continue
            if name.endswith(".wall_s"):
                slowed["metrics"][name] *= 2.0
            else:
                slowed["metrics"][name] *= 0.5
        problems = compare_to_baseline(slowed, baseline)
        assert len(problems) == len(baseline["metrics"])
        assert any("mc.is.cycles_per_sec" in p for p in problems)

    def test_small_jitter_tolerated(self, report):
        baseline = make_baseline(report)
        noisy = copy.deepcopy(report)
        for name in noisy["metrics"]:
            if not name.endswith(".wall_s"):
                noisy["metrics"][name] *= 0.95
        assert compare_to_baseline(noisy, baseline) == []

    def test_calibration_shift_cancels_for_normalized_metrics(self, report):
        # A machine uniformly 2x slower: normalized metrics must not trip.
        baseline = make_baseline(report)
        slower = copy.deepcopy(report)
        for name in slower["metrics"]:
            if name.endswith(".wall_s"):
                slower["metrics"][name] *= 2.0
            elif name.endswith("_per_sec"):
                slower["metrics"][name] *= 0.5
        assert compare_to_baseline(slower, baseline) == []

    def test_missing_metric_is_a_regression(self, report):
        baseline = make_baseline(report)
        stripped = copy.deepcopy(report)
        del stripped["metrics"]["sim.events_per_sec"]
        problems = compare_to_baseline(stripped, baseline)
        assert any("missing" in p for p in problems)

    def test_threshold_override(self, report):
        baseline = make_baseline(report)
        noisy = copy.deepcopy(report)
        noisy["metrics"]["mc.is.speedup_vs_scalar"] *= 0.8
        assert compare_to_baseline(noisy, baseline)  # 20% > the default 15%
        assert compare_to_baseline(noisy, baseline, threshold=0.3) == []

    def test_wrong_schema_rejected(self, report):
        with pytest.raises(ValueError, match="schema"):
            compare_to_baseline(report, {"schema": "repro-bench"})


class TestCli:
    def _run(self, tmp_path, *extra):
        out = tmp_path / "BENCH_throughput.json"
        rc = main([
            "bench", "--suite", "throughput", "--scale", "0.02",
            "--json-out", str(out),
            "--baseline", str(tmp_path / "missing-baseline.json"),
            *extra,
        ])
        return rc, out

    def test_writes_schema_versioned_artifact(self, tmp_path, capsys):
        rc, out = self._run(tmp_path)
        assert rc == 0  # missing baseline file skips the gate
        report = json.loads(out.read_text())
        assert report["schema"] == THROUGHPUT_SCHEMA
        assert report["v"] == THROUGHPUT_VERSION
        assert "gate skipped" in capsys.readouterr().err

    def test_artifact_canonical_payload_identical_across_jobs(self, tmp_path):
        payloads = []
        for jobs in ("1", "4"):
            _, out = self._run(tmp_path, "--jobs", jobs)
            payloads.append(
                json.dumps(
                    canonical_throughput_payload(json.loads(out.read_text())),
                    sort_keys=True,
                ).encode()
            )
        assert payloads[0] == payloads[1]

    def test_update_baseline_then_gate_passes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        rc = main([
            "bench", "--suite", "throughput", "--scale", "0.02",
            "--json-out", "", "--baseline", str(baseline), "--update-baseline",
        ])
        assert rc == 0
        assert json.loads(baseline.read_text())["schema"] == BASELINE_SCHEMA
        # a --threshold wide enough to absorb run-to-run jitter: the gate
        # logic is what is under test, not the machine's noise floor
        rc = main([
            "bench", "--suite", "throughput", "--scale", "0.02",
            "--json-out", "", "--baseline", str(baseline), "--threshold", "20",
        ])
        assert rc == 0

    def test_gate_fails_on_inflated_baseline(self, tmp_path, capsys):
        report = run_throughput_suite(seed=0, jobs=1, scale=0.02)
        baseline = make_baseline(report)
        for spec in baseline["metrics"].values():
            spec["value"] *= 100.0 if spec["mode"] == "higher" else 0.01
        path = tmp_path / "inflated.json"
        path.write_text(json.dumps(baseline))
        rc = main([
            "bench", "--suite", "throughput", "--scale", "0.02",
            "--json-out", "", "--baseline", str(path),
        ])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestSpeedupFloor:
    def test_vectorized_kernels_beat_scalar_by_3x(self):
        # The PR's headline acceptance: >= 3x over the scalar reference
        # on the committed workload shapes (full scale runs 10-30x).
        m = run_throughput_suite(seed=0, jobs=1, scale=0.3)["metrics"]
        assert m["sim.cells.speedup_vs_scalar"] >= 3
        assert m["mc.lifetime.speedup_vs_scalar"] >= 3
        assert m["mc.is.speedup_vs_scalar"] >= 3
