"""One known-bad and one known-good single-file fixture per contract.

Sorted dispatch and trace/metric names are judged by the whole-project
rules DRA503/DRA504; their single-file fixtures live here next to the
per-file rules, each pinned to the line it is reported at.
"""

from __future__ import annotations

from repro.lint import PARSE_ERROR_CODE, all_codes
from repro.lint.rules import RULES


class TestRegistry:
    def test_expected_catalogue(self):
        assert all_codes() == [
            "DRA101", "DRA102", "DRA104", "DRA105",
            "DRA301", "DRA401", "DRA501", "DRA502",
            "DRA503", "DRA504", "DRA505",
        ]

    def test_rules_carry_names_and_summaries(self):
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.name and rule.summary


class TestDRA101Rng:
    def test_stdlib_random_import_flagged(self, lint_codes):
        assert lint_codes("src/repro/sim/engine.py", "import random\n") == ["DRA101"]

    def test_from_random_import_flagged(self, lint_codes):
        codes = lint_codes("src/repro/traffic/gen.py", "from random import choice\n")
        assert codes == ["DRA101"]

    def test_unseeded_default_rng_flagged(self, lint_codes):
        src = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert "DRA101" in lint_codes("src/repro/montecarlo/x.py", src)

    def test_legacy_global_numpy_rng_flagged(self, lint_codes):
        src = """
            import numpy as np
            np.random.seed(0)
            x = np.random.uniform(0.0, 1.0)
        """
        assert lint_codes("src/repro/sim/x.py", src).count("DRA101") == 2

    def test_seeded_generator_ok(self, lint_codes):
        # seed arrives as a parameter (provenance intact): clean under
        # DRA101 *and* the interprocedural DRA501 pass -- a module-level
        # or hard-seeded generator would now be DRA501's finding
        src = """
            import numpy as np

            def make_stream(seed):
                rng = np.random.default_rng(seed)
                return rng.uniform(0.0, 1.0)
        """
        assert lint_codes("src/repro/sim/x.py", src) == []

    def test_sanctioned_stream_factory_exempt(self, lint_codes):
        # sim/rng.py is the one place allowed to touch raw entropy.
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint_codes("src/repro/sim/rng.py", src) == []


class TestDRA102Wallclock:
    def test_epoch_read_flagged_everywhere(self, lint_codes):
        src = "import time\nSTAMP = time.time()\n"
        assert "DRA102" in lint_codes("examples/demo.py", src)

    def test_monotonic_clock_ok_outside_core(self, lint_codes):
        src = "import time\nt0 = time.perf_counter()\n"
        assert lint_codes("examples/demo.py", src) == []

    def test_monotonic_clock_flagged_in_sim_core(self, lint_codes):
        src = "import time\nt0 = time.perf_counter()\n"
        codes = lint_codes("src/repro/sim/engine.py", src)
        # the import alone is already a finding inside the core
        assert codes == ["DRA102", "DRA102"]

    def test_datetime_now_flagged(self, lint_codes):
        src = "from datetime import datetime\nSTAMP = datetime.now()\n"
        assert "DRA102" in lint_codes("src/repro/analysis/report.py", src)

    def test_sanctioned_stopwatch_module_exempt(self, lint_codes):
        src = "import time\n\ndef now():\n    return time.perf_counter()\n"
        assert lint_codes("src/repro/runtime/timing.py", src) == []


class TestDRA103SortedDispatch:
    """Same-expression sorted-dispatch cases, reported by DRA503."""

    def test_dict_items_feeding_dispatch_flagged(self, lint_hits):
        src = """
            from repro.runtime import parallel_map

            def sweep(configs, f):
                return parallel_map(f, configs.items())
        """
        assert lint_hits("src/repro/analysis/sweep.py", src) == [("DRA503", 5)]

    def test_loop_over_set_in_dispatching_function_flagged(self, lint_hits):
        src = """
            from repro.runtime import metered_parallel_map

            def sweep(tags, f):
                jobs = [t for t in set(tags)]
                return metered_parallel_map(f, jobs)
        """
        assert lint_hits("src/repro/analysis/sweep.py", src) == [("DRA503", 5)]

    def test_module_level_dispatch_flagged(self, lint_hits):
        src = """
            from repro.runtime import parallel_map

            CONFIGS = {"a": [1], "b": [2, 3]}
            RESULTS = parallel_map(len, CONFIGS.keys())
        """
        assert lint_hits("benchmarks/test_sweep.py", src) == [("DRA503", 5)]

    def test_sorted_wrapper_ok(self, lint_codes):
        src = """
            from repro.runtime import parallel_map

            def sweep(configs, f):
                return parallel_map(f, sorted(configs.items()))
        """
        assert lint_codes("src/repro/analysis/sweep.py", src) == []

    def test_hash_order_ok_without_dispatch(self, lint_codes):
        # hash-order iteration is only a determinism hazard when the
        # function fans work out or spawns seed streams
        src = """
            def summarize(configs):
                return {k: len(v) for k, v in configs.items()}
        """
        assert lint_codes("src/repro/analysis/sweep.py", src) == []


class TestDRA104BareExcept:
    def test_bare_except_flagged(self, lint_codes):
        src = """
            def f():
                try:
                    risky()
                except:
                    recover()
        """
        assert lint_codes("src/repro/router/x.py", src) == ["DRA104"]

    def test_typed_except_ok(self, lint_codes):
        src = """
            def f(log):
                try:
                    risky()
                except ValueError as exc:
                    log.warning(exc)
        """
        assert lint_codes("src/repro/router/x.py", src) == []


class TestDRA105SwallowedException:
    def test_silent_pass_handler_flagged(self, lint_codes):
        src = """
            def f():
                try:
                    risky()
                except ValueError:
                    pass
        """
        assert lint_codes("src/repro/router/x.py", src) == ["DRA105"]

    def test_handler_that_acts_ok(self, lint_codes):
        src = """
            def f(log):
                try:
                    risky()
                except ValueError as exc:
                    log.warning(exc)
                    raise
        """
        assert lint_codes("src/repro/router/x.py", src) == []

    def test_tests_may_swallow(self, lint_codes):
        src = """
            def test_never_raises():
                try:
                    risky()
                except ValueError:
                    pass
        """
        assert lint_codes("tests/test_x.py", src) == []


class TestDRA201TraceKinds:
    """Trace-event kinds at the emit site, reported by DRA504."""

    def test_unregistered_kind_flagged(self, lint_hits):
        src = """
            def f(tracer):
                tracer.emit("made.up.kind", t=0.0)
        """
        assert lint_hits("src/repro/router/x.py", src) == [("DRA504", 3)]

    def test_non_literal_kind_flagged(self, lint_hits):
        # the wrapper needs no waiver: its parameter is judged at the
        # caller, where the kind does not fold to a string
        src = """
            def f(tracer, kind):
                tracer.emit(kind, t=0.0)

            def g(tracer, kinds):
                for kind in kinds:
                    f(tracer, kind)
        """
        assert lint_hits("src/repro/router/x.py", src) == [("DRA504", 7)]

    def test_emit_without_kind_flagged(self, lint_hits):
        src = """
            def f(tracer):
                tracer.emit(t=0.0)
        """
        assert lint_hits("src/repro/router/x.py", src) == [("DRA504", 3)]

    def test_registered_kind_ok(self, lint_codes):
        src = """
            def f(tracer):
                tracer.emit("sim.fire", t=1.0, event_id=7)
        """
        assert lint_codes("src/repro/router/x.py", src) == []

    def test_tests_outside_schema_scope(self, lint_codes):
        src = """
            def test_tracer(t):
                t.emit("demo.a", t=0.0)
        """
        assert lint_codes("tests/obs/test_x.py", src) == []


class TestDRA202MetricNames:
    """Metric names at the registry call, reported by DRA504."""

    def test_unregistered_name_flagged(self, lint_hits):
        src = """
            def f(reg):
                reg.counter("made.up.metric").inc()
        """
        assert lint_hits("src/repro/router/x.py", src) == [("DRA504", 3)]

    def test_unregistered_fstring_prefix_flagged(self, lint_hits):
        src = """
            def f(reg, tag):
                reg.counter(f"made.up.{tag}").inc()
        """
        assert lint_hits("src/repro/router/x.py", src) == [("DRA504", 3)]

    def test_non_literal_name_flagged(self, lint_hits):
        src = """
            def f(reg, name):
                reg.gauge(name).set(1.0)

            def g(reg, names):
                for name in names:
                    f(reg, name)
        """
        assert lint_hits("src/repro/router/x.py", src) == [("DRA504", 7)]

    def test_registered_name_and_family_ok(self, lint_codes):
        src = """
            def f(reg, code):
                reg.counter("lint.files").inc()
                reg.counter(f"lint.findings.{code}").inc()
        """
        assert lint_codes("src/repro/router/x.py", src) == []


class TestDRA301TestTolerances:
    def test_magic_epsilon_flagged(self, lint_codes):
        src = "def test_x(a, b):\n    assert abs(a - b) < 1e-9\n"
        assert lint_codes("tests/test_x.py", src) == ["DRA301"]

    def test_scaled_epsilon_with_floor_flagged(self, lint_codes):
        src = (
            "def test_x(a, b, scale):\n"
            "    assert abs(a - b) <= 1e-12 * scale + 1e-300\n"
        )
        assert lint_codes("tests/test_x.py", src) == ["DRA301"]

    def test_reversed_comparison_flagged(self, lint_codes):
        src = "def test_x(a, b):\n    assert 1e-9 > abs(a - b)\n"
        assert lint_codes("tests/test_x.py", src) == ["DRA301"]

    def test_integer_sigma_bound_ok(self, lint_codes):
        src = "def test_x(x, mu, se):\n    assert abs(x - mu) < 5 * se\n"
        assert lint_codes("tests/test_x.py", src) == []

    def test_derived_tolerance_ok(self, lint_codes):
        src = (
            "from repro.validate import FLOAT_EPS\n\n"
            "def test_x(a, b):\n"
            "    assert abs(a - b) <= 64 * FLOAT_EPS * abs(b)\n"
        )
        assert lint_codes("tests/test_x.py", src) == []

    def test_library_code_out_of_scope(self, lint_codes):
        # the rule polices tests; library float guards are a design choice
        src = "def clamp(a, b):\n    return abs(a - b) < 1e-9\n"
        assert lint_codes("src/repro/core/x.py", src) == []


class TestDRA401CliHelp:
    def test_flag_without_help_flagged(self, lint_codes):
        src = (
            "import argparse\n"
            "p = argparse.ArgumentParser()\n"
            "p.add_argument('--seed', type=int, default=0)\n"
        )
        assert lint_codes("src/repro/cli.py", src) == ["DRA401"]

    def test_subcommand_without_help_flagged(self, lint_codes):
        src = (
            "import argparse\n"
            "sub = argparse.ArgumentParser().add_subparsers()\n"
            "p = sub.add_parser('bench')\n"
        )
        assert lint_codes("src/repro/cli.py", src) == ["DRA401"]

    def test_flag_with_help_ok(self, lint_codes):
        src = (
            "import argparse\n"
            "p = argparse.ArgumentParser()\n"
            "p.add_argument('--seed', type=int, default=0, help='root seed')\n"
        )
        assert lint_codes("src/repro/cli.py", src) == []

    def test_positional_with_help_ok(self, lint_codes):
        src = (
            "import argparse\n"
            "p = argparse.ArgumentParser()\n"
            "p.add_argument('paths', nargs='*', help='files to scan')\n"
        )
        assert lint_codes("src/repro/cli.py", src) == []

    def test_non_literal_first_arg_out_of_scope(self, lint_codes):
        # only string-literal registrations are checked; anything else is
        # not how real CLI surface is declared
        src = "def reg(p, name):\n    p.add_argument(name)\n"
        assert lint_codes("src/repro/cli.py", src) == []

    def test_test_code_out_of_scope(self, lint_codes):
        src = (
            "import argparse\n"
            "p = argparse.ArgumentParser()\n"
            "p.add_argument('--x')\n"
        )
        assert lint_codes("tests/test_x.py", src) == []


class TestDRA002ParseError:
    def test_unparseable_file_reported(self, run_lint):
        report = run_lint("src/repro/sim/bad.py", "def broken(:\n")
        assert [f.code for f in report.findings] == [PARSE_ERROR_CODE]
        assert not report.ok
