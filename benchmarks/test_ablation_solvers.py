"""Ablation: transient-solver choice for the dependability chains.

Times each solver on the largest Figure 6 configuration and verifies they
agree to tight tolerance -- the evidence behind ``expm_multiply`` being
the default in :mod:`repro.core.reliability`.
"""

import numpy as np
import pytest

from repro.core import DRAConfig
from repro.core.reliability import build_dra_reliability_chain
from repro.core.states import AllHealthy
from repro.markov import transient_distribution, uniformized_distribution
from repro.analysis.sweep import FIG6_TIME_GRID
from repro.validate.oracles import transient_distribution_ode

CFG = DRAConfig(n=9, m=8)  # largest paper configuration: 73 states


def solve(method):
    chain = build_dra_reliability_chain(CFG)
    pi0 = chain.initial_distribution(AllHealthy)
    if method == "uniformization":
        return uniformized_distribution(chain, FIG6_TIME_GRID, pi0)
    if method == "ode":
        return transient_distribution_ode(chain, FIG6_TIME_GRID, pi0)
    return transient_distribution(chain, FIG6_TIME_GRID, pi0, method=method)


@pytest.mark.parametrize(
    "method", ["expm_multiply", "expm", "ode", "uniformization"]
)
def test_ablation_transient_solvers(benchmark, method):
    result = benchmark(solve, method)
    reference = solve("expm")
    np.testing.assert_allclose(result, reference, atol=5e-6)
    print(
        f"\nsolver={method}: {result.shape[0]} time points x "
        f"{result.shape[1]} states, max |delta| vs dense expm = "
        f"{np.abs(result - reference).max():.2e}"
    )
