"""The reference oracles stay out of production code paths."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import sweep
from repro.core import availability, reliability
from repro.markov import stationary_distribution, transient_distribution
from repro.router.fabric import SwitchFabric
from repro.runtime import montecarlo, sweeps
from repro.validate.oracles import scalar_cell_clock

PRODUCTION_PACKAGES = (
    "repro.cli",
    "repro.router",
    "repro.chaos",
    "repro.montecarlo",
    "repro.runtime",
    "repro.markov",
    "repro.core",
    "repro.analysis",
)

#: Solver and instrumentation keywords that moved to the oracles or to
#: the report: the production signatures no longer accept them.
REMOVED_KEYWORDS = [
    (stationary_distribution, "method"),
    (stationary_distribution, "tol"),
    (stationary_distribution, "max_iter"),
    (transient_distribution, "rtol"),
    (transient_distribution, "atol"),
    (reliability.bdr_reliability, "method"),
    (reliability.dra_reliability, "method"),
    (availability.bdr_availability, "method"),
    (availability.dra_availability, "method"),
    (sweep.reliability_sweep, "method"),
    (sweeps.parallel_reliability_sweep, "method"),
    (sweeps.parallel_reliability_sweep, "metrics"),
    (sweeps.parallel_availability_sweep, "metrics"),
    (sweeps.parallel_performance_sweep, "metrics"),
    (montecarlo.parallel_structure_function_reliability, "metrics"),
    (montecarlo.parallel_unavailability_importance_sampling, "metrics"),
]


def test_production_packages_do_not_import_the_oracles():
    # A fresh interpreter: this test process has imported the oracles.
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in PRODUCTION_PACKAGES)
        + "assert 'repro.validate.oracles' not in sys.modules\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    ("func", "keyword"),
    REMOVED_KEYWORDS,
    ids=[f"{func.__name__}-{kw}" for func, kw in REMOVED_KEYWORDS],
)
def test_removed_keyword_raises_type_error(func, keyword):
    # Python rejects an unknown keyword before it binds the positionals,
    # so the match on the keyword's name is what makes this specific.
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        func(**{keyword: None})


class TestScalarCellClock:
    def test_patches_and_restores(self):
        burst = SwitchFabric._start_run
        with scalar_cell_clock():
            assert SwitchFabric._start_run is not burst
        assert SwitchFabric._start_run is burst

    def test_restores_on_error(self):
        burst = SwitchFabric._start_run
        with pytest.raises(RuntimeError), scalar_cell_clock():
            raise RuntimeError("boom")
        assert SwitchFabric._start_run is burst
