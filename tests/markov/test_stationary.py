"""Stationary solver tests: closed forms, cross-method, irreducibility.

The ``linear`` cases run the production solver; ``nullspace`` and
``power`` run the reference oracles.
"""

import numpy as np
import pytest

from repro.markov import CTMCBuilder, stationary_distribution
from repro.markov.stationary import is_irreducible
from repro.validate import (
    assert_solvers_agree,
    assert_stationary_residual,
    distribution_atol,
)
from repro.validate.oracles import (
    stationary_distribution_nullspace,
    stationary_distribution_power,
)

SOLVERS = {
    "linear": stationary_distribution,
    "nullspace": stationary_distribution_nullspace,
    "power": stationary_distribution_power,
}


class TestClosedForm:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_two_state_balance(self, method, two_state_chain):
        pi = SOLVERS[method](two_state_chain)
        np.testing.assert_allclose(pi, [2.0 / 2.2, 0.2 / 2.2], rtol=1e-9)

    @pytest.mark.parametrize("method", SOLVERS)
    def test_symmetric_ring_uniform(self, method):
        b = CTMCBuilder()
        n = 5
        for i in range(n):
            b.add_transition(i, (i + 1) % n, 1.0)
            b.add_transition((i + 1) % n, i, 1.0)
        pi = SOLVERS[method](b.build())
        # budget: all three methods resolve this perfectly conditioned
        # chain to a handful of ulps; the power method's stopping
        # tolerance (1e-13 per step) dominates.
        assert_solvers_agree(
            pi, np.full(n, 1.0 / n),
            budget=1e-13 + distribution_atol(n),
            label=method,
        )


class TestCrossMethod:
    def test_methods_agree_on_stiff_chain(self):
        b = CTMCBuilder()
        b.add_transition("ok", "bad", 2e-5)
        b.add_transition("bad", "dead", 1e-4)
        b.add_transition("bad", "ok", 1.0 / 3.0)
        b.add_transition("dead", "ok", 1.0 / 3.0)
        chain = b.build()
        base = stationary_distribution(chain)
        for method in ("nullspace", "power"):
            np.testing.assert_allclose(SOLVERS[method](chain), base, rtol=1e-5)

    def test_balance_residual_tiny(self, two_state_chain):
        pi = stationary_distribution(two_state_chain)
        assert_stationary_residual(pi, two_state_chain)


class TestIrreducibility:
    def test_detects_reducible(self, absorbing_chain):
        assert not is_irreducible(absorbing_chain)
        with pytest.raises(ValueError, match="irreducible"):
            stationary_distribution(absorbing_chain)

    def test_detects_irreducible(self, two_state_chain):
        assert is_irreducible(two_state_chain)

    def test_single_state_chain(self):
        b = CTMCBuilder()
        b.add_state("only")
        pi = stationary_distribution(b.build())
        np.testing.assert_allclose(pi, [1.0])
