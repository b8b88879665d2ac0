"""Reliability models of Section 5.1 (reproduces Figure 6).

``R(t)`` is the probability that packets can still be transferred to and
from the LC under analysis (LCUA) at every instant up to ``t`` -- i.e. the
probability the absorbing chain has not reached state ``F``.

Two chains are built:

* **BDR** (Figure 5a): a linecard with no coverage; any LC component
  failure is fatal, so ``R(t) = exp(-lam_lc * t)``.
* **DRA** (Figure 5b): the zone-structured chain described in
  :mod:`repro.core.states`, with the transition structure below
  (``P = N - 2`` covering PI pools, ``D = M - 1`` covering PDLUs):

  From Zone-LC_inter state ``(i, j)``:

  - a covering PI group fails at rate ``(P - i) * lam_pi`` -> ``(i+1, j)``.
    At the grid boundary (``i = P - 1``) the ``paper`` variant has *no*
    such transition -- the paper's state list stops at ``i = N - 3``, and
    its own Figure 7 numbers (9^8 for N=3, M=2) are only reproduced when
    pool exhaustion before an LCUA failure is not modeled.  The
    ``extended`` variant adds the exhausted-pool states instead;
  - a covering PDLU fails at rate ``(D - j) * lam_pd`` -> ``(i, j+1)``
    (same boundary handling at ``j = D - 1``);
  - LCUA's PI units fail at ``lam_lpi`` -> ``i_PI``;
  - LCUA's PDLU fails at ``lam_lpd`` -> ``j_PD``;
  - the EIB or LCUA's bus controller fails at ``lam_bus + lam_bc`` -> ``T'``.

  From Zone-LCUA state ``i_PI`` (LCUA PI units down, covered):

  - a covering PI group fails at ``(P - i) * lam_pi`` -> ``(i+1)_PI``
    or ``F`` when the last group is lost;
  - the EIB or LCUA's bus controller fails at ``lam_bus + lam_bc``;
    destination ``T'`` in the ``paper`` variant (the literal "all states
    move to T'" of Section 5.1 -- required to reproduce the Figure 7
    saturation at 9^8 for mu = 1/12) or ``F`` in ``strict``/``extended``
    (see DESIGN.md decision 3).

  ``j_PD`` is symmetric with ``lam_pd`` over ``D`` PDLUs.

  From ``T'``: any LCUA component failure (rate ``lam_lc``) -> ``F``
  (coverage is impossible without the EIB).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.parameters import DRAConfig, FailureRates
from repro.core.states import (
    AllHealthy,
    BusDown,
    Failed,
    InterZoneState,
    UAPDState,
    UAPIState,
)
from repro.markov import CTMC, CTMCBuilder, transient_distribution

__all__ = [
    "build_bdr_reliability_chain",
    "build_dra_reliability_chain",
    "bdr_reliability",
    "dra_reliability",
    "ReliabilityResult",
    "BDR_WORKING",
]

#: Working-state label of the two-state BDR chain.
BDR_WORKING = "W"


def build_bdr_reliability_chain(rates: FailureRates | None = None) -> CTMC:
    """Two-state BDR chain of Figure 5(a): working -> F at ``lam_lc``."""
    rates = rates or FailureRates()
    b = CTMCBuilder()
    b.add_transition(BDR_WORKING, Failed, rates.lam_lc)
    return b.build()


def build_dra_reliability_chain(
    config: DRAConfig, rates: FailureRates | None = None
) -> CTMC:
    """DRA chain of Figure 5(b) for the given (N, M) configuration.

    The state enumeration order is deterministic in ``config`` so that
    perturbed chains (sensitivity analysis) are index-compatible.
    """
    rates = rates or FailureRates()
    b = CTMCBuilder()
    P = config.n_inter_pi  # covering PI groups, N - 2
    D = config.n_inter_pd  # covering PDLUs, M - 1
    extended = config.variant == "extended"
    # Zone-LC_inter grid: the paper's state list stops at i = N - 3 and
    # j = M - 2 (at least one covering unit of each kind left); the
    # extended variant adds the exhausted-pool rows/columns.
    i_max = P if extended else P - 1
    j_max = D if extended else D - 1
    # Where a Zone-LCUA state goes when the EIB / LCUA bus controller
    # fails: the literal paper model diverts to T', the stricter readings
    # absorb to F.
    ua_bus_target = BusDown if config.variant == "paper" else Failed
    lam_t = rates.lam_t_prime

    b.add_state(AllHealthy)

    for i in range(i_max + 1):
        for j in range(j_max + 1):
            s = InterZoneState(i, j)
            # Covering PI group failure (the paper variant drops this
            # transition at the grid boundary; see module docstring).
            if i + 1 <= i_max:
                b.add_transition(s, InterZoneState(i + 1, j), (P - i) * rates.lam_pi)
            # Covering PDLU failure.
            if j + 1 <= j_max:
                b.add_transition(s, InterZoneState(i, j + 1), (D - j) * rates.lam_pd)
            # LCUA PI failure: coverage by the remaining PI groups, if any.
            dst = UAPIState(i) if i <= P - 1 else Failed
            b.add_transition(s, dst, rates.lam_lpi)
            # LCUA PDLU failure: coverage by the remaining same-protocol PDLUs.
            dst = UAPDState(j) if j <= D - 1 else Failed
            b.add_transition(s, dst, rates.lam_lpd)
            # EIB / LCUA bus controller failure while LCUA is healthy.
            b.add_transition(s, BusDown, lam_t)

    for i in range(P):
        s = UAPIState(i)
        dst = UAPIState(i + 1) if i + 1 <= P - 1 else Failed
        b.add_transition(s, dst, (P - i) * rates.lam_pi)
        b.add_transition(s, ua_bus_target, lam_t)

    for j in range(D):
        s = UAPDState(j)
        dst = UAPDState(j + 1) if j + 1 <= D - 1 else Failed
        b.add_transition(s, dst, (D - j) * rates.lam_pd)
        b.add_transition(s, ua_bus_target, lam_t)

    b.add_transition(BusDown, Failed, rates.lam_lc)
    b.add_state(Failed)
    return b.build()


@dataclass(frozen=True)
class ReliabilityResult:
    """A reliability curve: ``reliability[k] = R(times[k])``."""

    times: np.ndarray
    reliability: np.ndarray
    label: str
    config: DRAConfig | None = None
    rates: FailureRates = field(default_factory=FailureRates)

    def at(self, t: float) -> float:
        """``R(t)`` by linear interpolation on the computed grid."""
        return float(np.interp(t, self.times, self.reliability))

    def __post_init__(self) -> None:
        if self.times.shape != self.reliability.shape:
            raise ValueError("times and reliability must have matching shapes")


def bdr_reliability(
    times: np.ndarray, rates: FailureRates | None = None
) -> ReliabilityResult:
    """BDR reliability curve (analytically ``exp(-lam_lc t)``).

    Solved through the Markov machinery rather than the closed form so the
    BDR and DRA numbers share one code path; a unit test pins the solver
    output to the closed form.
    """
    rates = rates or FailureRates()
    times = np.asarray(times, dtype=np.float64)
    chain = build_bdr_reliability_chain(rates)
    pi = transient_distribution(chain, times, chain.initial_distribution(BDR_WORKING))
    r = 1.0 - pi[:, chain.index_of(Failed)]
    return ReliabilityResult(times=times, reliability=r, label="BDR", rates=rates)


def dra_reliability(
    config: DRAConfig, times: np.ndarray, rates: FailureRates | None = None
) -> ReliabilityResult:
    """DRA reliability curve for ``config`` on the given time grid."""
    rates = rates or FailureRates()
    times = np.asarray(times, dtype=np.float64)
    chain = build_dra_reliability_chain(config, rates)
    pi = transient_distribution(chain, times, chain.initial_distribution(AllHealthy))
    r = 1.0 - pi[:, chain.index_of(Failed)]
    label = f"DRA(N={config.n},M={config.m})"
    return ReliabilityResult(
        times=times, reliability=r, label=label, config=config, rates=rates
    )
