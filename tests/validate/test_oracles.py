"""The reference oracles stay out of production code paths."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.router.fabric import SwitchFabric
from repro.validate.oracles import scalar_cell_clock

PRODUCTION_PACKAGES = (
    "repro.cli",
    "repro.router",
    "repro.chaos",
    "repro.montecarlo",
    "repro.runtime",
)


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
