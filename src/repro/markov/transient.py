"""Transient distribution solvers for CTMCs.

Computes ``pi(t) = pi(0) @ expm(Q t)`` on a grid of time points.  Two
methods are provided:

``expm_multiply``
    Krylov/Taylor action of the matrix exponential on a vector
    (:func:`scipy.sparse.linalg.expm_multiply`); never forms ``expm(Q t)``
    explicitly.  Default, and the right choice for the paper's chains
    (hundreds of states, very stiff rate spread).

``expm``
    Dense Pade matrix exponential; O(n^3) per distinct time step, but
    independent of ``||Q|| t``, so small chains evaluated at horizons of
    millions of hours use it
    (:meth:`~repro.core.performability.PerformabilityModel.transient`).

An independent third path, LSODA integration of the Kolmogorov forward
equation, is the reference solver
:func:`repro.validate.oracles.transient_distribution_ode`.

Both methods return an ``(n_times, n_states)`` array whose rows are
probability distributions.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from repro.markov.ctmc import CTMC

__all__ = ["transient_distribution", "TRANSIENT_METHODS"]

TRANSIENT_METHODS = ("expm_multiply", "expm")


def transient_distribution(
    chain: CTMC,
    times: Sequence[float] | np.ndarray,
    initial: np.ndarray | None = None,
    *,
    method: str = "expm_multiply",
) -> np.ndarray:
    """State probabilities of ``chain`` at each time in ``times``.

    Parameters
    ----------
    chain:
        The CTMC to solve.
    times:
        Nonnegative time points (need not be sorted or distinct).
    initial:
        Initial distribution; defaults to all mass on state index 0.
    method:
        One of :data:`TRANSIENT_METHODS`.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(times), n_states)``; row ``k`` is ``pi(times[k])``.
    """
    if method == "expm_multiply":
        return _solve_checked(chain, times, initial, _solve_expm_multiply)
    if method == "expm":
        return _solve_checked(chain, times, initial, _solve_dense_expm)
    raise ValueError(f"unknown method {method!r}; choose from {TRANSIENT_METHODS}")


def _solve_checked(
    chain: CTMC,
    times: Sequence[float] | np.ndarray,
    initial: np.ndarray | None,
    solve: Callable[[CTMC, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Validate the inputs, run ``solve`` and renormalise its rows.

    Shared with the ODE reference solver in :mod:`repro.validate.oracles`.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if t.size and t.min() < 0.0:
        raise ValueError("times must be nonnegative")
    pi0 = (
        chain.initial_distribution()
        if initial is None
        else np.asarray(initial, dtype=np.float64)
    )
    if pi0.shape != (chain.n_states,):
        raise ValueError(
            f"initial distribution shape {pi0.shape} != ({chain.n_states},)"
        )
    if not np.isclose(pi0.sum(), 1.0, atol=1e-9):
        raise ValueError(f"initial distribution sums to {pi0.sum()}, expected 1")
    if t.size == 0:
        return np.empty((0, chain.n_states))
    out = solve(chain, t, pi0)
    # Solvers introduce tiny negative round-off; clip and renormalize so
    # downstream reliability/availability numbers are proper probabilities.
    np.clip(out, 0.0, None, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _solve_expm_multiply(chain: CTMC, t: np.ndarray, pi0: np.ndarray) -> np.ndarray:
    # Row-vector evolution pi(t) = pi0 @ expm(Qt) is the column evolution of
    # the transposed generator: expm(Q.T t) @ pi0.
    QT = chain.generator.T.tocsr()
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    out_sorted = np.empty((t.size, chain.n_states))
    v = pi0.copy()
    prev = 0.0
    for k, tk in enumerate(sorted_t):
        dt = tk - prev
        if dt > 0.0:
            v = scipy.sparse.linalg.expm_multiply(QT * dt, v)
            prev = tk
        out_sorted[k] = v
    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    return out


def _solve_dense_expm(chain: CTMC, t: np.ndarray, pi0: np.ndarray) -> np.ndarray:
    Q = chain.generator.toarray()
    out = np.empty((t.size, chain.n_states))
    # Cache by time value: grids often contain repeated points.
    cache: dict[float, np.ndarray] = {}
    for k, tk in enumerate(t):
        key = float(tk)
        if key not in cache:
            cache[key] = scipy.linalg.expm(Q * key)
        out[k] = pi0 @ cache[key]
    return out
