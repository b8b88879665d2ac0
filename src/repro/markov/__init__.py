"""Generic continuous-time Markov chain (CTMC) engine.

This subpackage is the numerical substrate for the paper's dependability
analysis (Section 5 of Mandviwalla & Tzeng, ICPP 2004).  It provides:

* :class:`~repro.markov.ctmc.CTMC` -- an immutable chain with a sparse
  generator matrix and a typed state registry.
* :class:`~repro.markov.builder.CTMCBuilder` -- incremental construction of
  chains from (state, state, rate) triples.
* :mod:`~repro.markov.transient` -- transient state-probability solvers
  (Krylov ``expm_multiply`` and the dense matrix exponential; the LSODA
  ODE reference lives in :mod:`repro.validate.oracles`).
* :mod:`~repro.markov.uniformization` -- Jensen's uniformization with an
  a-priori truncation error bound, used to cross-check the other solvers.
* :mod:`~repro.markov.stationary` -- the steady-state solver (sparse
  linear solve; the null-space and power-iteration references live in
  :mod:`repro.validate.oracles`).
* :mod:`~repro.markov.absorbing` -- absorption probabilities, mean time to
  absorption and phase-type distribution evaluation.
* :mod:`~repro.markov.sensitivity` -- parametric sensitivity of transient
  and stationary probabilities.

All solvers operate on :class:`scipy.sparse` matrices and are vectorized
over time grids; no Python-level loop touches individual matrix entries
after construction.
"""

from repro.markov.builder import CTMCBuilder
from repro.markov.ctmc import CTMC
from repro.markov.transient import transient_distribution
from repro.markov.stationary import stationary_distribution
from repro.markov.uniformization import uniformized_distribution
from repro.markov.absorbing import (
    absorption_probabilities,
    absorption_time_moments,
    mean_time_to_absorption,
    phase_type_cdf,
)
from repro.markov.sensitivity import transient_sensitivity
from repro.markov.rewards import (
    accumulated_reward,
    instantaneous_reward,
    interval_availability,
    reward_vector,
)
from repro.markov.dtmc import DTMC
from repro.markov.firstpassage import (
    expected_first_passage_times,
    hitting_probabilities,
)

__all__ = [
    "CTMC",
    "CTMCBuilder",
    "transient_distribution",
    "stationary_distribution",
    "uniformized_distribution",
    "absorption_probabilities",
    "absorption_time_moments",
    "mean_time_to_absorption",
    "phase_type_cdf",
    "transient_sensitivity",
    "reward_vector",
    "instantaneous_reward",
    "accumulated_reward",
    "interval_availability",
    "expected_first_passage_times",
    "hitting_probabilities",
    "DTMC",
]
