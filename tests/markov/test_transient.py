"""Transient solver tests: closed forms and cross-method agreement.

The ``ode`` cases run the LSODA reference oracle; the others run the two
production methods.
"""

from functools import partial

import numpy as np
import pytest

from repro.markov import CTMCBuilder, transient_distribution
from repro.markov.transient import TRANSIENT_METHODS
from repro.validate import assert_distribution_rows, assert_solvers_agree
from repro.validate.oracles import transient_distribution_ode

SOLVERS = {
    **{m: partial(transient_distribution, method=m) for m in TRANSIENT_METHODS},
    "ode": transient_distribution_ode,
}


def pure_death(lam: float):
    b = CTMCBuilder()
    b.add_transition("up", "down", lam)
    return b.build()


class TestClosedForms:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_exponential_decay(self, method):
        lam = 0.3
        chain = pure_death(lam)
        t = np.array([0.0, 1.0, 2.0, 5.0])
        pi = SOLVERS[method](chain, t)
        np.testing.assert_allclose(pi[:, 0], np.exp(-lam * t), rtol=1e-6)

    @pytest.mark.parametrize("method", SOLVERS)
    def test_two_state_equilibrium(self, method, two_state_chain):
        # pi_up(inf) = mu / (mu + lam) with lam = 0.2, mu = 2.0.
        pi = SOLVERS[method](two_state_chain, np.array([200.0]))
        assert pi[0, 0] == pytest.approx(2.0 / 2.2, rel=1e-6)

    def test_initial_condition_respected(self, two_state_chain):
        pi0 = two_state_chain.initial_distribution("down")
        pi = transient_distribution(two_state_chain, np.array([0.0]), pi0)
        np.testing.assert_allclose(pi[0], [0.0, 1.0])


class TestCrossMethod:
    def test_methods_agree_on_stiff_chain(self):
        # Rates spanning 6 orders of magnitude, like the dependability models.
        b = CTMCBuilder()
        b.add_transition("a", "b", 2e-5)
        b.add_transition("b", "c", 1e-5)
        b.add_transition("b", "a", 1.0 / 3.0)
        b.add_state("c")
        chain = b.build()
        t = np.array([100.0, 10_000.0, 100_000.0])
        base = transient_distribution(chain, t, method="expm_multiply")
        for method in ("expm", "ode"):
            other = SOLVERS[method](chain, t)
            # budget: the ODE path advertises rtol=1e-10/atol=1e-12 on
            # probabilities <= 1; the expm paths are far below that.
            assert_solvers_agree(
                other, base, budget=1e-10 + 1e-12,
                label=f"{method} vs expm_multiply",
            )


class TestRowProperties:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_rows_are_distributions(self, method, absorbing_chain):
        t = np.linspace(0.0, 20.0, 7)
        pi = SOLVERS[method](absorbing_chain, t)
        assert_distribution_rows(pi, label=method)

    def test_unsorted_and_repeated_times(self, absorbing_chain):
        t = np.array([5.0, 1.0, 5.0, 0.0])
        pi = transient_distribution(absorbing_chain, t)
        np.testing.assert_allclose(pi[0], pi[2], atol=1e-12)
        np.testing.assert_allclose(pi[3], [1.0, 0.0, 0.0], atol=1e-12)


class TestValidation:
    def test_negative_time_rejected(self, two_state_chain):
        with pytest.raises(ValueError, match="nonnegative"):
            transient_distribution(two_state_chain, np.array([-1.0]))

    def test_bad_initial_shape_rejected(self, two_state_chain):
        with pytest.raises(ValueError, match="shape"):
            transient_distribution(two_state_chain, np.array([1.0]), np.ones(3) / 3)

    def test_unnormalized_initial_rejected(self, two_state_chain):
        with pytest.raises(ValueError, match="sums to"):
            transient_distribution(
                two_state_chain, np.array([1.0]), np.array([0.5, 0.2])
            )

    def test_unknown_method_rejected(self, two_state_chain):
        assert TRANSIENT_METHODS == ("expm_multiply", "expm")
        for method in ("magic", "ode"):  # the ODE path is an oracle only
            with pytest.raises(ValueError, match="unknown method"):
                transient_distribution(two_state_chain, np.array([1.0]), method=method)

    def test_2d_times_rejected(self, two_state_chain):
        with pytest.raises(ValueError, match="one-dimensional"):
            transient_distribution(two_state_chain, np.ones((2, 2)))

    def test_empty_times(self, two_state_chain):
        out = transient_distribution(two_state_chain, np.array([]))
        assert out.shape == (0, 2)
