"""Cross-validation: every independent computation path must agree.

These tests are the reproduction's safety net.  The same quantity is
computed through (1) the sparse transient solver, (2) dense expm,
(3) uniformization and the LSODA oracle, (4) the phase-type CDF of the absorbing chain,
(5) CTMC trajectory sampling, and (6) the structure-function Monte Carlo
-- all six must coincide.
"""

import numpy as np
import pytest

from repro.core import DRAConfig, RepairPolicy, dra_availability, dra_reliability
from repro.core.availability import build_dra_availability_chain
from repro.core.reliability import build_dra_reliability_chain
from repro.core.states import AllHealthy, Failed
from repro.markov import (
    phase_type_cdf,
    transient_distribution,
    uniformized_distribution,
)
from repro.montecarlo import (
    empirical_availability,
    empirical_state_probabilities,
    structure_function_reliability,
)
from repro.validate.oracles import transient_distribution_ode

CFG = DRAConfig(n=6, m=3)
TIMES = np.array([5_000.0, 40_000.0, 90_000.0])


class TestSolverAgreement:
    def test_all_transient_methods_agree(self):
        chain = build_dra_reliability_chain(CFG)
        pi0 = chain.initial_distribution(AllHealthy)
        a = transient_distribution(chain, TIMES, pi0, method="expm_multiply")
        b = transient_distribution(chain, TIMES, pi0, method="expm")
        c = transient_distribution_ode(chain, TIMES, pi0)
        d = uniformized_distribution(chain, TIMES, pi0)
        np.testing.assert_allclose(b, a, atol=1e-8)
        np.testing.assert_allclose(c, a, atol=1e-6)
        np.testing.assert_allclose(d, a, atol=1e-8)

    def test_reliability_equals_phase_type_survival(self):
        chain = build_dra_reliability_chain(CFG)
        pi0 = chain.initial_distribution(AllHealthy)
        r_transient = dra_reliability(CFG, TIMES).reliability
        r_phase = 1.0 - phase_type_cdf(chain, TIMES, pi0)
        np.testing.assert_allclose(r_phase, r_transient, atol=1e-8)


class TestMonteCarloAgreement:
    def test_trajectory_sampling_matches_reliability(self, rng):
        chain = build_dra_reliability_chain(CFG)
        n = 3000
        emp = empirical_state_probabilities(
            chain, TIMES, n, rng, initial_state=chain.index_of(AllHealthy)
        )
        exact = dra_reliability(CFG, TIMES).reliability
        emp_rel = 1.0 - emp[:, chain.index_of(Failed)]
        se = np.sqrt(exact * (1.0 - exact) / n) + 1e-9
        assert np.all(np.abs(emp_rel - exact) < 5 * se)

    def test_structure_function_matches_extended_chain(self, rng):
        cfg = DRAConfig(n=6, m=3, variant="extended")
        exact = dra_reliability(cfg, TIMES).reliability
        mc = structure_function_reliability(cfg, TIMES, 150_000, rng)
        assert mc.within(exact, z=4.5)

    def test_availability_mc_matches_stationary(self, rng):
        """Trajectory time-averages agree with the stationary solve.

        Uses repair-dominant accelerated rates so downtime mass is
        observable within a modest horizon.
        """
        from repro.core.parameters import FailureRates

        rates = FailureRates().scaled(3000.0)  # ~6e-2/h LC failure rate
        cfg = DRAConfig(n=4, m=2)
        rp = RepairPolicy(mu=1.0)
        chain = build_dra_availability_chain(cfg, rp, rates)
        exact = dra_availability(cfg, rp, rates).availability
        est, se = empirical_availability(
            chain,
            chain.index_of(Failed),
            horizon=3_000.0,
            n_samples=40,
            rng=rng,
        )
        assert est == pytest.approx(exact, abs=max(6 * se, 2e-3))
