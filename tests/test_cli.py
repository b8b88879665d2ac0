"""CLI smoke tests (everything short of the slow validate run)."""

import json

import pytest

from repro.cli import main
from repro.obs import get_tracer, read_trace, tracing


class TestCLI:
    def test_fig6(self, capsys):
        assert main(["fig6", "--points", "0,40000", "--configs", "3:2"]) == 0
        out = capsys.readouterr().out
        assert "BDR" in out and "DRA(N=3,M=2)" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--configs", "3:2"]) == 0
        assert "9^8" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8", "--loads", "0.7"]) == 0
        assert "%" in capsys.readouterr().out

    def test_fig8_with_bound_bus(self, capsys):
        assert main(["fig8", "--loads", "0.7", "--b-bus", "5"]) == 0

    def test_mttf(self, capsys):
        assert main(["mttf", "--configs", "9:4"]) == 0
        assert "DRA(N=9,M=4)" in capsys.readouterr().out

    def test_cost(self, capsys):
        assert main(["cost", "--n", "6", "--protocols", "2"]) == 0
        assert "sparing" in capsys.readouterr().out

    def test_importance(self, capsys):
        assert main(["importance", "--n", "5", "--m", "3"]) == 0
        assert "lam_lpi" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig7.csv"
        assert main(["fig7", "--configs", "3:2", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "label,x,value" in csv_path.read_text()

    def test_validate_quick(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_validate.json"
        assert main(["validate", "--suite", "tiny",
                     "--json-out", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "pairs agree" in out and "FAIL" not in out
        payload = json.loads(out_json.read_text())
        assert payload["schema"] == "repro-validate" and payload["v"] == 1
        assert payload["passed"] is True
        assert payload["n_pairs"] == len(payload["pairs"]) >= 2

    def test_validate_perturbed_model_fails(self, capsys):
        # The acceptance criterion: a deliberately wrong analytic model
        # (one CTMC rate scaled 1.5x) must make the suite FAIL.
        assert main(["validate", "--suite", "tiny", "--json-out", "",
                     "--perturb", "lam_lpi=1.5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "mttf.lc" in out

    def test_validate_rejects_unknown_perturb_param(self):
        with pytest.raises(SystemExit):
            main(["validate", "--suite", "tiny", "--json-out", "",
                  "--perturb", "bogus=2.0"])

    def test_report(self, capsys):
        assert main(["report"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_fig6_variant_flag(self, capsys):
        assert main(["fig6", "--configs", "3:2", "--points", "40000",
                     "--variant", "extended"]) == 0
        out = capsys.readouterr().out
        assert "DRA(N=3,M=2)" in out

    def test_fig6_invalid_variant_exits(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--variant", "bogus"])


class TestRuntimeFlags:
    """The --jobs/--seed/--cache wiring added with repro.runtime."""

    def test_fig6_jobs(self, capsys):
        assert main(["fig6", "--points", "0,40000", "--configs", "3:2",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "BDR" in out and "DRA(N=3,M=2)" in out

    def test_fig7_cache_warm_run_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig7", "--configs", "3:2", "--cache"]) == 0
        cold = capsys.readouterr().out
        assert main(["fig7", "--configs", "3:2", "--cache"]) == 0
        assert capsys.readouterr().out == cold
        assert any(tmp_path.glob("*/*.pkl"))

    def test_validate_jobs_byte_identical(self, tmp_path, capsys):
        # The acceptance criterion: same --seed => byte-identical JSON
        # report whatever --jobs says.
        serial_json = tmp_path / "serial.json"
        fanned_json = tmp_path / "fanned.json"
        assert main(["validate", "--suite", "tiny", "--seed", "3",
                     "--jobs", "1", "--json-out", str(serial_json)]) == 0
        serial = capsys.readouterr().out
        assert main(["validate", "--suite", "tiny", "--seed", "3",
                     "--jobs", "4", "--json-out", str(fanned_json)]) == 0
        assert capsys.readouterr().out == serial
        assert serial_json.read_bytes() == fanned_json.read_bytes()
        assert "pairs agree" in serial and "FAIL" not in serial

    def test_bench_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_runtime.json"
        assert main(["bench", "--target", "mc", "--trials", "20000",
                     "--jobs-list", "1,2", "--json-out", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "results identical across jobs: yes" in out
        assert "trials/s" in out and "speedup" in out

    def test_bench_fig6_smoke(self, tmp_path, capsys):
        assert main(["bench", "--target", "fig6", "--jobs-list", "1",
                     "--json-out", str(tmp_path / "b.json")]) == 0
        assert "points/s" in capsys.readouterr().out

    def test_bench_writes_schema_versioned_json(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_runtime.json"
        assert main(["bench", "--target", "mc", "--trials", "20000",
                     "--jobs-list", "1,2", "--json-out", str(out_json)]) == 0
        assert f"wrote {out_json}" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["schema"] == "repro-bench" and payload["v"] == 1
        assert payload["target"] == "mc" and payload["unit"] == "trials"
        assert [s["jobs"] for s in payload["stages"]] == [1, 2]
        for stage in payload["stages"]:
            assert stage["wall_s"] > 0.0
            assert stage["items"] == 20000
            assert stage["throughput_per_s"] > 0.0
        assert payload["stages"][0]["speedup_vs_first"] == 1.0

    def test_bench_json_disabled_by_empty_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--target", "fig6", "--jobs-list", "1",
                     "--json-out", ""]) == 0
        assert not (tmp_path / "BENCH_runtime.json").exists()

    def test_report_runtime_section(self, capsys):
        assert main(["report", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Runtime — wall time per stage" in out
        assert "reliability sweep (Figure 6)" in out

    def test_report_cache_stats_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["report", "--cache"]) == 0
        assert "miss(es)" in capsys.readouterr().out

    def test_report_observability_section(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Observability — collected metrics" in out
        assert "solver.stationary.solves" in out


class TestTracing:
    """The --trace flag and the trace subcommand."""

    def test_fig8_trace_covers_every_event_family(self, tmp_path, capsys):
        # The PR acceptance criterion: one fig8 run yields control-packet,
        # collision, coverage-case and solver events.
        path = tmp_path / "t.jsonl"
        assert main(["fig8", "--n", "4", "--trace", str(path)]) == 0
        kinds = {ev.kind for ev in read_trace(str(path))}
        assert "bus.ctl.deliver" in kinds
        assert "bus.ctl.collision" in kinds
        assert "coverage.plan" in kinds
        assert "solver.uniformization" in kinds
        assert "solver.stationary" in kinds
        coverage = next(ev for ev in read_trace(str(path))
                        if ev.kind == "coverage.plan")
        assert any(tag.startswith("case") for tag in coverage.data["cases"])

    def test_trace_subcommand_summarizes(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["fig8", "--n", "4", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "schema v1 ok" in out
        assert "bus.ctl.deliver" in out and "sim-time span" in out

    def test_trace_subcommand_kind_filter_and_json(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        with tracing(str(path)) as t:
            t.emit("demo.a", t=0.0)
            t.emit("demo.a", t=1.0)
            t.emit("other.b", t=2.0)
        assert main(["trace", str(path), "--kind", "demo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == 2
        assert payload["kinds"] == {"demo.a": 2}
        assert payload["time_span_s"] == [0.0, 1.0]

    def test_trace_subcommand_limit_prints_events(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        with tracing(str(path)) as t:
            for i in range(5):
                t.emit("demo.a", t=float(i), i=i)
        assert main(["trace", str(path), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count('"kind":"demo.a"') == 2

    def test_trace_subcommand_schema_guard_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 99, "seq": 0, "kind": "x", "data": {}}\n')
        assert main(["trace", str(path)]) == 1
        assert "trace error" in capsys.readouterr().err

    def test_trace_flag_on_analytic_subcommand(self, tmp_path, capsys):
        # Any subcommand accepts --trace; a run with no instrumented
        # activity still yields a valid (possibly empty) trace file.
        path = tmp_path / "mttf.jsonl"
        assert main(["mttf", "--configs", "3:2", "--trace", str(path)]) == 0
        assert path.exists()
        read_trace(str(path))  # schema-valid

    def test_validate_trace_events(self, tmp_path, capsys):
        path = tmp_path / "v.jsonl"
        assert main(["validate", "--suite", "tiny", "--json-out", "",
                     "--trace", str(path)]) == 0
        kinds = [ev.kind for ev in read_trace(str(path))]
        assert kinds.count("validate.suite") == 1
        assert kinds.count("validate.pair") == 2

    def test_tracer_deactivated_after_run(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(["mttf", "--configs", "3:2", "--trace", str(path)]) == 0
        assert get_tracer() is None


class TestChaosCommand:
    """The chaos subcommand: campaign gate + JSON report + fork-safe trace."""

    def test_chaos_runs_clean_and_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "chaos.json"
        assert main([
            "chaos", "--seeds", "2", "--duration", "0.002",
            "--json-out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "invariant violations: 0" in out
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro-chaos"
        assert report["totals"]["violations"] == 0
        assert len(report["schedules"]) == 2

    def test_chaos_trace_flag_fork_safe(self, tmp_path, capsys):
        trace_path = tmp_path / "chaos.jsonl"
        assert main([
            "chaos", "--seeds", "2", "--duration", "0.002", "--jobs", "2",
            "--trace", str(trace_path),
        ]) == 0
        events = read_trace(str(trace_path))
        assert events  # schedule 0 re-ran in-process under the tracer
        assert get_tracer() is None  # tracer torn down cleanly

    def test_cell_dispatch_flag_is_gone(self, capsys):
        # The per-cell reference clock is a test oracle
        # (repro.validate.oracles), not a CLI option.
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--seeds", "1", "--cell-dispatch", "scalar"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cell-dispatch" in capsys.readouterr().err


class TestIncidentsCommand:
    """The incidents subcommand: fold traces into repro-incidents v1."""

    @pytest.fixture
    def chaos_trace(self, tmp_path):
        path = tmp_path / "chaos.jsonl"
        assert main([
            "chaos", "--seeds", "2", "--duration", "0.002",
            "--trace", str(path),
        ]) == 0
        return str(path)

    def test_incidents_summarizes_and_writes_json(
        self, chaos_trace, tmp_path, capsys
    ):
        capsys.readouterr()
        out_json = tmp_path / "incidents.json"
        assert main([
            "incidents", chaos_trace, "--json-out", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "incident span(s)" in out
        report = json.loads(out_json.read_text())
        assert report["schema"] == "repro-incidents"
        assert report["version"] == 1
        assert report["totals"]["spans"] == len(report["spans"])
        assert report["totals"]["spans"] > 0
        assert "health" in report

    def test_incidents_byte_identical_across_jobs(
        self, chaos_trace, tmp_path, capsys
    ):
        serial = tmp_path / "serial.json"
        fanned = tmp_path / "fanned.json"
        assert main(["incidents", chaos_trace, chaos_trace,
                     "--jobs", "1", "--json-out", str(serial)]) == 0
        assert main(["incidents", chaos_trace, chaos_trace,
                     "--jobs", "4", "--json-out", str(fanned)]) == 0
        assert serial.read_bytes() == fanned.read_bytes()
        multi = json.loads(serial.read_text())
        assert multi["schema"] == "repro-incidents"
        assert len(multi["reports"]) == 2

    def test_incidents_metrics_out_writes_prometheus(
        self, chaos_trace, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.prom"
        assert main([
            "incidents", chaos_trace, "--metrics-out", str(metrics_path),
        ]) == 0
        text = metrics_path.read_text(encoding="utf-8")
        assert "repro_incident_spans" in text
        assert "# TYPE repro_incident_mttr_s histogram" in text
        assert "repro_health_lc_" in text
        assert f"wrote metrics {metrics_path}" in capsys.readouterr().err

    def test_incidents_missing_file_fails(self, tmp_path, capsys):
        assert main(["incidents", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err
