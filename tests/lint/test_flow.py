"""Interprocedural (DRA5xx) pass: fixtures, determinism, CLI gate.

Every fixture materializes a *multi-file* ``src/repro/...`` tree under
``tmp_path`` -- the findings here genuinely cross module boundaries,
which is exactly what the per-file tier cannot see.  One known-bad and
one known-good tree per rule family, plus the suppression-interplay
policy tests (waive at the sink, never at the source), the call-graph
export contract, and the injected-violation CLI gates the CI job pins.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import GRAPH_SCHEMA_VERSION, lint_paths
from repro.lint.flow.rules5xx import FLOW_RULES
from repro.lint.rules import RULES
from repro.obs.metrics import MetricsRegistry, collecting


def _write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


@pytest.fixture
def flow_codes(tmp_path):
    """Write a multi-file tree, lint it, return the DRA5xx codes."""

    def run(files, **kwargs):
        _write_tree(tmp_path, files)
        report = lint_paths([str(tmp_path)], **kwargs)
        return [f.code for f in report.findings if f.code.startswith("DRA5")]

    return run


@pytest.fixture
def flow_report(tmp_path):
    def run(files, **kwargs):
        _write_tree(tmp_path, files)
        return lint_paths([str(tmp_path)], **kwargs)

    return run


# ---------------------------------------------------------------------------
# injected-violation trees, one per rule (the CI gate reuses these shapes)
# ---------------------------------------------------------------------------

BAD_DRA501 = {
    "src/repro/mc/consts.py": "SEED = 1234\n",
    "src/repro/mc/driver.py": """
        from numpy.random import default_rng

        from repro.mc.consts import SEED

        def estimate(n):
            rng = default_rng(SEED)
            return rng.random(n).mean()
    """,
}

BAD_DRA501_CLOSURE = {
    "src/repro/mc/pool.py": """
        from numpy.random import default_rng

        from repro.runtime.executor import parallel_map

        def sweep(points, seed):
            rng = default_rng(seed)

            def worker(p):
                return p + rng.random()

            return parallel_map(worker, points)
    """,
}

BAD_DRA502 = {
    "src/repro/mc/state.py": "RESULTS = {}\n",
    "src/repro/mc/work.py": """
        from repro.mc.state import RESULTS
        from repro.runtime.executor import parallel_map

        def _task(x):
            RESULTS[x] = x * x
            return RESULTS[x]

        def run(items):
            return parallel_map(_task, items)
    """,
}

BAD_DRA503 = {
    "src/repro/mc/plan.py": """
        def open_faults(plan):
            return plan.keys()
    """,
    "src/repro/mc/sweep.py": """
        from repro.mc.plan import open_faults
        from repro.runtime.executor import parallel_map

        def _sim(key):
            return key

        def run(plan):
            faults = open_faults(plan)
            return parallel_map(_sim, faults)
    """,
}

BAD_DRA504 = {
    "src/repro/mc/obs_util.py": """
        def note(tracer, kind, t):
            tracer.emit(kind, t=t)
    """,
    "src/repro/mc/run.py": """
        from repro.mc.obs_util import note

        def go(tracer):
            note(tracer, "mc.totally_unregistered", 0.0)
    """,
}

BAD_DRA505 = {
    "src/repro/mc/model.py": """
        import time

        class Engine:
            def schedule(self, t, action, label=None):
                pass

        def _on_fire():
            return _stamp()

        def _stamp():
            return time.time()  # dra: noqa[DRA102] reason=fixture: DRA505 must flag this through the call chain on its own

        def main():
            eng = Engine()
            eng.schedule(1.0, _on_fire)
    """,
}

INJECTED = {
    "DRA501": BAD_DRA501,
    "DRA502": BAD_DRA502,
    "DRA503": BAD_DRA503,
    "DRA504": BAD_DRA504,
    "DRA505": BAD_DRA505,
}


class TestDRA501RngProvenance:
    def test_hard_seed_through_cross_module_constant(self, flow_codes):
        assert flow_codes(BAD_DRA501) == ["DRA501"]

    def test_closure_capturing_stream_across_pool(self, flow_codes):
        assert flow_codes(BAD_DRA501_CLOSURE) == ["DRA501"]

    def test_module_level_generator_flagged(self, flow_codes):
        files = {
            "src/repro/mc/globals_rng.py": """
                from numpy.random import default_rng

                def seed_of():
                    return 3

                RNG = default_rng(seed_of() or None)
            """,
        }
        assert flow_codes(files) == ["DRA501"]

    def test_param_derived_seed_is_clean(self, flow_codes):
        files = {
            "src/repro/mc/clean.py": """
                from numpy.random import default_rng

                def estimate(seed_seq, n):
                    rng = default_rng(seed_seq)
                    return rng.random(n).mean()
            """,
        }
        assert flow_codes(files) == []

    def test_spawned_task_stream_is_clean(self, flow_codes):
        files = {
            "src/repro/mc/spawned.py": """
                from numpy.random import default_rng

                from repro.runtime.executor import parallel_map

                def _task(payload):
                    seq, x = payload
                    rng = default_rng(seq)
                    return x + rng.random()

                def run(points, root_seq):
                    payloads = list(zip(root_seq.spawn(len(points)), points))
                    return parallel_map(_task, payloads)
            """,
        }
        assert flow_codes(files) == []


class TestDRA502WorkerRace:
    def test_worker_writing_cross_module_dict(self, flow_codes):
        assert flow_codes(BAD_DRA502) == ["DRA502"]

    def test_mutating_method_on_module_list(self, flow_codes):
        files = {
            "src/repro/mc/acc.py": "SEEN = []\n",
            "src/repro/mc/work.py": """
                from repro.mc import acc
                from repro.runtime.executor import parallel_map

                def _task(x):
                    acc.SEEN.append(x)
                    return x

                def run(items):
                    return parallel_map(_task, items)
            """,
        }
        assert flow_codes(files) == ["DRA502"]

    def test_transitively_reachable_writer_flagged(self, flow_codes):
        files = {
            "src/repro/mc/state.py": "CACHE = {}\n",
            "src/repro/mc/deep.py": """
                from repro.mc.state import CACHE
                from repro.runtime.executor import parallel_map

                def _task(x):
                    return _helper(x)

                def _helper(x):
                    CACHE[x] = x
                    return x

                def run(items):
                    return parallel_map(_task, items)
            """,
        }
        assert flow_codes(files) == ["DRA502"]

    def test_local_and_payload_state_is_clean(self, flow_codes):
        files = {
            "src/repro/mc/clean.py": """
                from repro.runtime.executor import parallel_map

                def _task(x):
                    local = {}
                    local[x] = x * x
                    return local

                def run(items):
                    return parallel_map(_task, items)
            """,
        }
        assert flow_codes(files) == []

    def test_driver_side_writes_are_clean(self, flow_codes):
        # the *driver* may fold worker returns into module state -- only
        # worker-reachable writers race
        files = {
            "src/repro/mc/fold.py": """
                from repro.runtime.executor import parallel_map

                TOTALS = {}

                def _task(x):
                    return x * x

                def run(items):
                    for item, sq in zip(items, parallel_map(_task, items)):
                        TOTALS[item] = sq
                    return TOTALS
            """,
        }
        assert flow_codes(files) == []


class TestDRA503UnorderedEscape:
    def test_cross_module_keys_into_dispatch(self, flow_codes):
        assert flow_codes(BAD_DRA503) == ["DRA503"]

    def test_taint_through_local_then_iteration(self, flow_codes):
        files = {
            "src/repro/mc/mix.py": """
                from repro.runtime.executor import parallel_map

                def _sim(key):
                    return key

                def run(plan):
                    pending = plan.items()
                    jobs = [k for k, _ in pending]
                    return parallel_map(_sim, jobs)
            """,
        }
        assert flow_codes(files) == ["DRA503"]

    def test_sorted_at_source_function_is_clean(self, flow_codes):
        files = {
            "src/repro/mc/plan.py": """
                def open_faults(plan):
                    return sorted(plan.keys())
            """,
            "src/repro/mc/sweep.py": """
                from repro.mc.plan import open_faults
                from repro.runtime.executor import parallel_map

                def _sim(key):
                    return key

                def run(plan):
                    return parallel_map(_sim, open_faults(plan))
            """,
        }
        assert flow_codes(files) == []

    def test_direct_local_case_reported_once(self, flow_report):
        # `.items()` written directly at the dispatch site is one
        # finding, from the one sorted-dispatch rule
        files = {
            "src/repro/mc/direct.py": """
                from repro.runtime.executor import parallel_map

                def _sim(kv):
                    return kv

                def run(plan):
                    return parallel_map(_sim, plan.items())
            """,
        }
        report = flow_report(files)
        codes = [f.code for f in report.findings]
        assert codes == ["DRA503"]


class TestDRA504LiteralFlow:
    def test_unregistered_kind_through_wrapper(self, flow_codes):
        report = flow_codes(BAD_DRA504)
        assert report == ["DRA504"]

    def test_wrapper_finding_lands_at_caller(self, flow_report):
        report = flow_report(BAD_DRA504)
        (finding,) = [f for f in report.findings if f.code == "DRA504"]
        assert finding.path.endswith("src/repro/mc/run.py")

    def test_wrapper_with_two_sinks_flags_caller_once(self, flow_report):
        files = {
            "src/repro/mc/obs_util.py": """
                def note(tracer, kind, t):
                    tracer.emit(kind, t=t)
                    tracer.emit(kind, t=t + 1.0)
            """,
            "src/repro/mc/run.py": BAD_DRA504["src/repro/mc/run.py"],
        }
        report = flow_report(files)
        assert [(f.code, f.line) for f in report.findings] == [("DRA504", 5)]
        assert report.findings[0].path.endswith("src/repro/mc/run.py")

    def test_wrapper_called_only_from_tests_judged_there(self, flow_report):
        files = {
            "src/repro/mc/note.py": """
                def note(tracer, kind):
                    tracer.emit(kind)
            """,
            "tests/test_note.py": """
                from repro.mc.note import note


                def test_note(tracer):
                    note(tracer, "made.up.kind")
            """,
        }
        (finding,) = flow_report(files).findings
        assert (finding.code, finding.line) == ("DRA504", 6)
        assert finding.path.endswith("tests/test_note.py")

    def test_registered_kind_through_wrapper_is_clean(self, flow_codes):
        files = {
            "src/repro/mc/obs_util.py": """
                def note(tracer, kind, t):
                    tracer.emit(kind, t=t)
            """,
            "src/repro/mc/run.py": """
                from repro.mc.obs_util import note

                def go(tracer):
                    note(tracer, "sim.fire", 0.0)
            """,
        }
        assert flow_codes(files) == []

    def test_unfoldable_wrapper_arg_flagged(self, flow_codes):
        files = {
            "src/repro/mc/obs_util.py": """
                def note(tracer, kind, t):
                    tracer.emit(kind, t=t)
            """,
            "src/repro/mc/run.py": """
                from repro.mc.obs_util import note

                def go(tracer, kinds):
                    for k in kinds:
                        note(tracer, k, 0.0)
            """,
        }
        assert flow_codes(files) == ["DRA504"]

    def test_metric_name_via_module_constant(self, flow_codes):
        files = {
            "src/repro/mc/names.py": 'FAMILY = "mc.bogus"\n',
            "src/repro/mc/run.py": """
                from repro.mc.names import FAMILY

                def count(registry):
                    registry.counter(FAMILY).inc()
            """,
        }
        assert flow_codes(files) == ["DRA504"]

    def test_registered_constant_metric_is_clean(self, flow_codes):
        files = {
            "src/repro/mc/names.py": 'NAME = "mc.is.cycles"\n',
            "src/repro/mc/run.py": """
                from repro.mc.names import NAME

                def count(registry):
                    registry.counter(NAME).inc()
            """,
        }
        assert flow_codes(files) == []


class TestDRA505HotpathPurity:
    def test_wallclock_through_scheduled_chain(self, flow_codes):
        assert flow_codes(BAD_DRA505, select=frozenset({"DRA5"})) == ["DRA505"]

    def test_lambda_scheduled_target_reached(self, flow_codes):
        files = {
            "src/repro/mc/model.py": """
                import time

                class Engine:
                    def schedule_in(self, dt, action):
                        pass

                def probe():
                    return time.perf_counter()  # dra: noqa[DRA102] reason=fixture: DRA505 must flag this via the lambda edge

                def main(eng):
                    eng.schedule_in(0.5, lambda: probe() + 1)
            """,
        }
        assert flow_codes(files, select=frozenset({"DRA5"})) == ["DRA505"]

    def test_unscheduled_io_is_not_hotpath(self, flow_codes):
        files = {
            "src/repro/mc/driver.py": """
                def dump(rows, path):
                    with open(path, "w") as fh:
                        for row in rows:
                            fh.write(f"{row}\\n")
            """,
        }
        assert flow_codes(files, select=frozenset({"DRA5"})) == []

    def test_pure_scheduled_frame_is_clean(self, flow_codes):
        files = {
            "src/repro/mc/model.py": """
                class Engine:
                    def schedule(self, t, action, label=None):
                        pass

                def _on_fire(state):
                    return state + 1

                def main(eng, state):
                    eng.schedule(1.0, _on_fire)
            """,
        }
        assert flow_codes(files, select=frozenset({"DRA5"})) == []


class TestSuppressionInterplay:
    """Policy: interprocedural findings are waived at the SINK line."""

    def test_sink_line_waiver_silences(self, flow_report):
        files = dict(BAD_DRA503)
        files["src/repro/mc/sweep.py"] = """
            from repro.mc.plan import open_faults
            from repro.runtime.executor import parallel_map

            def _sim(key):
                return key

            def run(plan):
                faults = open_faults(plan)
                return parallel_map(_sim, faults)  # dra: noqa[DRA503] reason=single-writer plan in this harness; order provably immaterial
        """
        report = flow_report(files)
        assert [f.code for f in report.findings] == []
        assert report.suppressed == 1

    def test_source_line_waiver_does_not_silence(self, flow_report):
        # the waiver sits where the unordered value is BORN -- policy
        # says that line cannot vouch for every downstream sink
        files = dict(BAD_DRA503)
        files["src/repro/mc/plan.py"] = """
            def open_faults(plan):
                return plan.keys()  # dra: noqa[DRA503] reason=attempting to waive at the source; must not work
        """
        report = flow_report(files)
        assert [f.code for f in report.findings] == ["DRA503"]

    def test_dra501_sink_waiver(self, flow_report):
        files = {
            "src/repro/mc/driver.py": """
                from numpy.random import default_rng

                def calibrate():
                    rng = default_rng(99)  # dra: noqa[DRA501] reason=calibration-only stream; results never consumed
                    return rng.random()
            """,
        }
        report = flow_report(files)
        assert [f.code for f in report.findings] == []
        assert report.suppressed == 1

    def test_dra505_sink_waiver(self, flow_report):
        files = dict(BAD_DRA505)
        files["src/repro/mc/model.py"] = files["src/repro/mc/model.py"].replace(
            "reason=fixture: DRA505 must flag this through the call chain on its own",
            "reason=fixture",
        ).replace(
            "time.time()  # dra: noqa[DRA102] reason=fixture",
            "time.time()  # dra: noqa[DRA102,DRA505] reason=fixture: waived at the impure call, the sink",
        )
        report = flow_report(files, select=frozenset({"DRA5"}))
        assert [f.code for f in report.findings] == []
        assert report.suppressed == 1


class TestGraphExport:
    def test_payload_schema_and_edges(self, tmp_path):
        _write_tree(tmp_path, BAD_DRA503)
        out = tmp_path / "graph.json"
        lint_paths([str(tmp_path)], graph_out=str(out))
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-callgraph"
        assert doc["v"] == GRAPH_SCHEMA_VERSION
        names = {f["name"] for f in doc["functions"]}
        assert any(n.endswith("repro.mc.sweep.run") for n in names)
        run_entry = next(
            f for f in doc["functions"] if f["name"].endswith("repro.mc.sweep.run")
        )
        edges = {(c["to"].split(".")[-1], c["kind"]) for c in run_entry["calls"]}
        assert ("_sim", "pool") in edges
        assert ("open_faults", "call") in edges
        assert any(w.endswith("._sim") for w in doc["worker_entries"])

    def test_graph_bytes_identical_across_runs(self, tmp_path):
        _write_tree(tmp_path, BAD_DRA503)
        first = tmp_path / "g1.json"
        second = tmp_path / "g2.json"
        lint_paths([str(tmp_path)], graph_out=str(first))
        lint_paths([str(tmp_path)], graph_out=str(second))
        assert first.read_bytes() == second.read_bytes()


class TestCliGate:
    """The acceptance pins: every injected violation exits nonzero."""

    @pytest.mark.parametrize("code", sorted(INJECTED))
    def test_injected_violation_fails_lint(self, code, tmp_path, capsys):
        _write_tree(tmp_path, INJECTED[code])
        rc = main(["lint", str(tmp_path), "--select", "DRA5"])
        out = capsys.readouterr().out
        assert rc != 0
        assert code in out

    def test_ignore_dra5_skips_the_pass(self, tmp_path, capsys, monkeypatch):
        _write_tree(tmp_path, BAD_DRA503)
        assert main(["lint", str(tmp_path)]) != 0
        capsys.readouterr()

        def no_flow_pass(contexts):
            raise AssertionError("flow pass ran with every DRA5 code ignored")

        monkeypatch.setattr("repro.lint.flow.analyze_project", no_flow_pass)
        assert main(["lint", str(tmp_path), "--ignore", "DRA5"]) == 0
        capsys.readouterr()
        report = lint_paths([str(tmp_path)], ignore=frozenset({"DRA5"}))
        assert report.selected == tuple(sorted(RULES))

    def test_graph_out_via_cli(self, tmp_path, capsys):
        _write_tree(tmp_path, {"src/repro/mc/a.py": "def f():\n    return 1\n"})
        out = tmp_path / "graph.json"
        rc = main(["lint", str(tmp_path), "--graph-out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(out.read_text())["schema"] == "repro-callgraph"


class TestRegistryAndMetrics:
    def test_flow_rules_carry_names_and_summaries(self):
        assert sorted(FLOW_RULES) == [
            "DRA501", "DRA502", "DRA503", "DRA504", "DRA505",
        ]
        for code, rule in FLOW_RULES.items():
            assert rule.code == code
            assert rule.name.startswith("flow.")
            assert rule.summary

    def test_wall_ms_gauge_and_report_field(self, tmp_path):
        _write_tree(tmp_path, {"src/repro/mc/a.py": "def f():\n    return 1\n"})
        registry = MetricsRegistry()
        with collecting(registry):
            report = lint_paths([str(tmp_path)])
        assert report.wall_ms > 0.0
        assert "lint.wall_ms" in registry.names()

    def test_wall_ms_never_in_payload(self, tmp_path):
        _write_tree(tmp_path, {"src/repro/mc/a.py": "def f():\n    return 1\n"})
        report = lint_paths([str(tmp_path)])
        assert "wall_ms" not in json.dumps(report.to_payload())

    def test_flow_findings_obey_select_ignore(self, tmp_path):
        _write_tree(tmp_path, BAD_DRA503)
        ignored = lint_paths([str(tmp_path)], ignore=frozenset({"DRA5"}))
        assert [f.code for f in ignored.findings] == []
        assert "DRA503" not in ignored.selected
        selected = lint_paths([str(tmp_path)], select=frozenset({"DRA503"}))
        assert [f.code for f in selected.findings] == ["DRA503"]
        assert selected.selected == ("DRA503",)
