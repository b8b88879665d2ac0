"""Structure-function Monte Carlo for DRA linecard reliability.

This estimator never constructs a Markov chain.  It samples iid
exponential lifetimes for every physical ingredient of the model --

* LCUA's PI units (``lam_lpi``) and PDLU (``lam_lpd``),
* the EIB passive lines (``lam_bus``) and LCUA's bus controller (``lam_bc``),
* the ``N - 2`` covering PI groups (``lam_pi`` each) and ``M - 1``
  covering PDLUs (``lam_pd`` each),

-- and computes the instant the LC stops transferring packets directly
from the DRA coverage semantics of Section 3.2:

* **bus path**: once the EIB or LCUA's bus controller is gone, the first
  LCUA unit failure is fatal (coverage needs the bus):
  ``max(min(T_bus, T_bc), min(T_lpi, T_lpd))``.
* **PI path** (only if LCUA's PI units fail before its PDLU, per the
  analysis assumption that LCUA fails at one unit only): fatal when
  LCUA's PI units *and* every covering PI group have failed:
  ``max(T_lpi, max_k T_pi_k)``.
* **PD path** (symmetric): ``max(T_lpd, max_k T_pd_k)``.

The LC failure time is the minimum of the applicable paths.  This is
exactly the absorption time of the ``extended`` chain variant, so
agreement with :func:`repro.core.reliability.dra_reliability` on that
variant validates the chain *structure* end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.parameters import DRAConfig, FailureRates

__all__ = [
    "LifetimeEstimate",
    "empirical_unreliability",
    "sample_lc_failure_times",
    "structure_function_reliability",
]


@dataclass(frozen=True)
class LifetimeEstimate:
    """Monte Carlo reliability curve with pointwise binomial errors."""

    times: np.ndarray
    reliability: np.ndarray
    std_error: np.ndarray
    n_samples: int

    def within(self, other: np.ndarray, *, z: float = 4.0) -> bool:
        """True when ``other`` lies within ``z`` standard errors everywhere."""
        return bool(np.all(np.abs(self.reliability - other) <= z * self.std_error + 1e-12))


def _component_lifetimes(
    config: DRAConfig,
    n_samples: int,
    rng: np.random.Generator,
    rates: FailureRates | None,
) -> tuple[np.ndarray, ...]:
    """``(t_lpi, t_lpd, t_bus, t_bc, t_pi, t_pd)``, in fixed RNG draw order."""
    rates = rates or FailureRates()
    return (
        rng.exponential(1.0 / rates.lam_lpi, n_samples),
        rng.exponential(1.0 / rates.lam_lpd, n_samples),
        rng.exponential(1.0 / rates.lam_bus, n_samples),
        rng.exponential(1.0 / rates.lam_bc, n_samples),
        rng.exponential(1.0 / rates.lam_pi, (n_samples, config.n_inter_pi)),
        rng.exponential(1.0 / rates.lam_pd, (n_samples, config.n_inter_pd)),
    )


def sample_lc_failure_times(
    config: DRAConfig,
    n_samples: int,
    rng: np.random.Generator,
    rates: FailureRates | None = None,
) -> np.ndarray:
    """Sample ``n_samples`` LC failure times (hours).

    The component lifetimes are drawn as numpy batches and the structure
    function is evaluated elementwise over the whole sample axis.  Its
    per-sample reference loop is
    :func:`repro.validate.oracles.sample_lc_failure_times_scalar`, which
    makes the same draws and is bit-identical.
    """
    t_lpi, t_lpd, t_bus, t_bc, t_pi, t_pd = _component_lifetimes(
        config, n_samples, rng, rates
    )
    bus_path = np.maximum(np.minimum(t_bus, t_bc), np.minimum(t_lpi, t_lpd))
    pi_path = np.maximum(t_lpi, t_pi.max(axis=1))
    pd_path = np.maximum(t_lpd, t_pd.max(axis=1))
    # Assumption 3: LCUA fails at one unit only -- whichever unit would
    # fail first is the one that fails, selecting the coverage path.
    unit_path = np.where(t_lpi < t_lpd, pi_path, pd_path)
    return np.minimum(bus_path, unit_path)


def structure_function_reliability(
    config: DRAConfig,
    times: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    rates: FailureRates | None = None,
) -> LifetimeEstimate:
    """Empirical ``R(t)`` from the structure function.

    ``R_hat(t) = P(T_F > t)`` with standard error
    ``sqrt(R (1 - R) / n)`` per time point.
    """
    times = np.asarray(times, dtype=np.float64)
    failure_times = sample_lc_failure_times(config, n_samples, rng, rates)
    # For each t, the fraction of sampled failure times exceeding it.
    r_hat = (failure_times[np.newaxis, :] > times[:, np.newaxis]).mean(axis=1)
    se = np.sqrt(np.clip(r_hat * (1.0 - r_hat), 0.0, None) / n_samples)
    return LifetimeEstimate(
        times=times, reliability=r_hat, std_error=se, n_samples=n_samples
    )


def empirical_unreliability(
    config: DRAConfig,
    horizon: float,
    n_samples: int,
    rng: np.random.Generator,
    rates: FailureRates | None = None,
) -> tuple[int, int]:
    """Binomial sufficient statistics for ``1 - R(horizon)``.

    Returns ``(failures, n_samples)`` -- the count of sampled LC failure
    times at or below ``horizon`` hours.  The validation harness feeds
    these straight into a Wilson interval, which keeps honest coverage
    even when the horizon makes failure a rare event.
    """
    failure_times = sample_lc_failure_times(config, n_samples, rng, rates)
    return int(np.count_nonzero(failure_times <= horizon)), n_samples
