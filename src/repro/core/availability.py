"""Availability models of Section 5.2 (reproduces Figure 7).

The reliability chains of :mod:`repro.core.reliability` are augmented with
the paper's repair process: a single transition from every degraded state
back to the all-healthy state at rate ``mu``, "irrespective of the type and
the number of [failed] units".  The repaired chain is irreducible, so the
steady-state availability is

    ``A = 1 - pi_F``

where ``pi`` is the stationary distribution and ``F`` the LC-failed state.
The paper reports A in its "9^x" nines notation (:mod:`repro.core.nines`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.nines import count_nines, nines_notation
from repro.core.parameters import DRAConfig, FailureRates, RepairPolicy
from repro.core.reliability import (
    BDR_WORKING,
    build_bdr_reliability_chain,
    build_dra_reliability_chain,
)
from repro.core.states import AllHealthy, Failed
from repro.markov import CTMC, CTMCBuilder, stationary_distribution

__all__ = [
    "build_bdr_availability_chain",
    "build_dra_availability_chain",
    "bdr_availability",
    "dra_availability",
    "AvailabilityResult",
]


def _with_repair(chain: CTMC, healthy_state: object, repair: RepairPolicy) -> CTMC:
    """Augment ``chain`` with the Section 5.2 repair process.

    ``stages == 1`` (the paper's model) adds one ``state -> healthy``
    transition at rate ``mu`` from every degraded state.  ``stages == k``
    makes the repair duration Erlang-k with the same mean: every degraded
    state is replicated per repair phase ``r`` in ``1..k``; failures move
    within a phase, phase transitions run at ``k mu``, and completing the
    last phase restores the healthy state.  Degraded states are labeled
    ``(s, r)`` in that case.
    """
    mu, k = repair.mu, repair.stages
    b = CTMCBuilder()
    coo = chain.generator.tocoo()
    transitions = [
        (chain.states[i], chain.states[j], q)
        for i, j, q in zip(coo.row, coo.col, coo.data)
        if i != j and q > 0.0
    ]
    if k == 1:
        b.add_states(chain.states)
        for src, dst, q in transitions:
            b.add_transition(src, dst, q)
        for s in chain.states:
            if s != healthy_state:
                b.add_transition(s, healthy_state, mu)
        return b.build()

    def label(state: object, phase: int) -> object:
        return state if state == healthy_state else (state, phase)

    b.add_state(healthy_state)
    rate = k * mu
    for phase in range(1, k + 1):
        for src, dst, q in transitions:
            src_l = label(src, phase)
            # A failure out of the healthy state starts repair phase 1.
            dst_l = label(dst, 1 if src == healthy_state else phase)
            if src == healthy_state and phase > 1:
                continue  # the healthy state exists once
            b.add_transition(src_l, dst_l, q)
        for s in chain.states:
            if s == healthy_state:
                continue
            if phase < k:
                b.add_transition(label(s, phase), label(s, phase + 1), rate)
            else:
                b.add_transition(label(s, phase), healthy_state, rate)
    return b.build()


def _failed_probability(chain: CTMC, pi) -> float:
    """Total stationary mass of the LC-failed condition.

    With Erlang repair the failed state is replicated per repair phase as
    ``(F, r)``; sum over every replica.
    """
    total = 0.0
    for idx, state in enumerate(chain.states):
        base = state[0] if isinstance(state, tuple) and len(state) == 2 else state
        if base == Failed:
            total += float(pi[idx])
    return total


def build_bdr_availability_chain(
    repair: RepairPolicy | None = None, rates: FailureRates | None = None
) -> CTMC:
    """Two-state repairable BDR chain: W <-> F."""
    repair = repair or RepairPolicy()
    return _with_repair(build_bdr_reliability_chain(rates), BDR_WORKING, repair)


def build_dra_availability_chain(
    config: DRAConfig,
    repair: RepairPolicy | None = None,
    rates: FailureRates | None = None,
) -> CTMC:
    """Repairable DRA chain: Figure 5(b) plus repair edges into (0, 0)."""
    repair = repair or RepairPolicy()
    return _with_repair(
        build_dra_reliability_chain(config, rates), AllHealthy, repair
    )


@dataclass(frozen=True)
class AvailabilityResult:
    """Steady-state availability of an LC plus its nines summary."""

    availability: float
    label: str
    repair: RepairPolicy
    config: DRAConfig | None = None
    rates: FailureRates = field(default_factory=FailureRates)

    @property
    def unavailability(self) -> float:
        """``1 - A`` (expected downtime fraction)."""
        return 1.0 - self.availability

    @property
    def nines(self) -> int:
        """Consecutive leading nines of A -- the paper's ``9^x``."""
        return count_nines(self.availability)

    @property
    def notation(self) -> str:
        """Formatted ``9^x`` string as printed in Figure 7."""
        return nines_notation(self.availability)

    @property
    def downtime_minutes_per_year(self) -> float:
        """Expected annual downtime in minutes (8766-hour year)."""
        return self.unavailability * 8766.0 * 60.0


def bdr_availability(
    repair: RepairPolicy | None = None, rates: FailureRates | None = None
) -> AvailabilityResult:
    """BDR steady-state availability (analytically ``mu / (mu + lam_lc)``)."""
    repair = repair or RepairPolicy()
    rates = rates or FailureRates()
    chain = build_bdr_availability_chain(repair, rates)
    pi = stationary_distribution(chain)
    a = 1.0 - _failed_probability(chain, pi)
    return AvailabilityResult(
        availability=a, label="BDR", repair=repair, rates=rates
    )


def dra_availability(
    config: DRAConfig,
    repair: RepairPolicy | None = None,
    rates: FailureRates | None = None,
) -> AvailabilityResult:
    """DRA steady-state availability for ``config``."""
    repair = repair or RepairPolicy()
    rates = rates or FailureRates()
    chain = build_dra_availability_chain(config, repair, rates)
    pi = stationary_distribution(chain)
    a = 1.0 - _failed_probability(chain, pi)
    return AvailabilityResult(
        availability=a,
        label=f"DRA(N={config.n},M={config.m})",
        repair=repair,
        config=config,
        rates=rates,
    )
