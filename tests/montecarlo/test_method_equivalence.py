"""The batched-vs-oracle contract (docs/performance.md).

Every vectorized Monte Carlo kernel has its original scalar loop as a
reference in :mod:`repro.validate.oracles`.  The contract, over a seed
matrix:

* ``lifetime``: both draw the *same* numpy batches and evaluate an exact
  max/min structure function, so they are **bit-identical**;
* ``importance`` / ``ctmc_mc``: the batched kernels consume the RNG
  stream in a different order, so results are not bit-identical -- each
  side must independently agree with the analytic solvers within its
  own confidence interval, and each must be a deterministic function of
  its seed.
"""

import numpy as np
import pytest

from repro.core import DRAConfig, RepairPolicy, dra_availability
from repro.core.availability import build_dra_availability_chain
from repro.core.states import Failed
from repro.markov import stationary_distribution, transient_distribution
from repro.montecarlo import (
    collect_cycle_statistics,
    empirical_availability,
    empirical_state_probabilities,
    result_from_statistics,
    sample_lc_failure_times,
)
from repro.validate import assert_mc_fraction_consistent, assert_mc_mean_consistent
from repro.validate.oracles import (
    collect_cycle_statistics_scalar,
    empirical_availability_scalar,
    empirical_state_probabilities_scalar,
    sample_lc_failure_times_scalar,
)

SEED_MATRIX = [0, 1, 12345]

#: production kernel and its reference oracle, by test id
CYCLE_STATISTICS = {
    "batched": collect_cycle_statistics,
    "scalar": collect_cycle_statistics_scalar,
}
STATE_PROBABILITIES = {
    "batched": empirical_state_probabilities,
    "scalar": empirical_state_probabilities_scalar,
}
AVAILABILITY = {
    "batched": empirical_availability,
    "scalar": empirical_availability_scalar,
}


class TestLifetimeBitIdentity:
    @pytest.mark.parametrize("seed", SEED_MATRIX)
    def test_scalar_reproduces_vectorized_bitwise(self, seed):
        cfg = DRAConfig(n=9, m=4)
        vec = sample_lc_failure_times(cfg, 500, np.random.default_rng(seed))
        sc = sample_lc_failure_times_scalar(cfg, 500, np.random.default_rng(seed))
        assert np.array_equal(vec, sc)


class TestImportanceSamplingMethods:
    @pytest.mark.parametrize("seed", SEED_MATRIX)
    @pytest.mark.parametrize("method", ["batched", "scalar"])
    def test_each_method_consistent_with_exact(self, seed, method):
        rp = RepairPolicy.three_hours()
        cfg = DRAConfig(n=3, m=2)
        chain = build_dra_availability_chain(cfg, rp)
        exact = 1.0 - dra_availability(cfg, rp).availability
        res = result_from_statistics(
            CYCLE_STATISTICS[method](chain, Failed, 8_000, np.random.default_rng(seed))
        )
        assert res.consistent_with(exact, z=6.0)
        assert res.hit_fraction > 0.05

    @pytest.mark.parametrize("method", ["batched", "scalar"])
    def test_method_is_deterministic_in_seed(self, method):
        chain = build_dra_availability_chain(
            DRAConfig(n=3, m=2), RepairPolicy.three_hours()
        )
        runs = [
            CYCLE_STATISTICS[method](chain, Failed, 1_000, np.random.default_rng(7))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert result_from_statistics(runs[0]) == result_from_statistics(runs[1])


class TestTrajectoryMethods:
    @pytest.mark.parametrize("seed", SEED_MATRIX)
    @pytest.mark.parametrize("method", ["batched", "scalar"])
    def test_each_method_consistent_with_solver(
        self, seed, method, two_state_chain
    ):
        times = np.array([0.5, 2.0, 10.0])
        n = 2_000
        emp = STATE_PROBABILITIES[method](
            two_state_chain, times, n, np.random.default_rng(seed)
        )
        exact = transient_distribution(two_state_chain, times)
        for i, t in enumerate(times):
            for s in range(exact.shape[1]):
                assert_mc_fraction_consistent(
                    int(round(emp[i, s] * n)), n, float(exact[i, s]),
                    z=5.0, label=f"{method} state {s} at t={t}",
                )

    @pytest.mark.parametrize("method", ["batched", "scalar"])
    def test_method_is_deterministic_in_seed(self, method, two_state_chain):
        times = np.array([1.0, 4.0])
        runs = [
            STATE_PROBABILITIES[method](
                two_state_chain, times, 500, np.random.default_rng(3)
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("seed", SEED_MATRIX)
    @pytest.mark.parametrize("method", ["batched", "scalar"])
    def test_availability_consistent_with_solver(
        self, seed, method, two_state_chain
    ):
        pi = stationary_distribution(two_state_chain)
        down_idx = two_state_chain.index_of("down")
        est, se = AVAILABILITY[method](
            two_state_chain, down_idx, 2000.0, 60, np.random.default_rng(seed)
        )
        assert_mc_mean_consistent(
            est, se, 1.0 - pi[down_idx], label=f"{method} availability"
        )
