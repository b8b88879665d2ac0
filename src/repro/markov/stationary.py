"""Steady-state distribution solver for irreducible CTMCs.

The stationary distribution ``pi`` solves ``pi @ Q = 0`` with
``sum(pi) = 1``.  Production solves it one way: a sparse linear system
with one balance equation replaced by the normalization constraint.  The
independent dense null-space and power-iteration solvers that tests
cross-check it against are reference oracles in
:mod:`repro.validate.oracles`.

The repair-augmented dependability chains of Section 5.2 are irreducible by
construction (every state repairs back to the all-healthy state), so
existence and uniqueness of ``pi`` are guaranteed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from repro.markov.ctmc import CTMC
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["stationary_distribution", "is_irreducible"]


def is_irreducible(chain: CTMC) -> bool:
    """True when the transition graph is strongly connected."""
    n_comp, _ = sp.csgraph.connected_components(
        chain.generator, directed=True, connection="strong"
    )
    return n_comp == 1


def stationary_distribution(chain: CTMC) -> np.ndarray:
    """Stationary distribution of an irreducible CTMC.

    Parameters
    ----------
    chain:
        The chain; must be irreducible (checked).

    Returns
    -------
    numpy.ndarray
        Length-``n_states`` probability vector.
    """
    if chain.n_states == 1:
        return np.ones(1)
    _require_irreducible(chain)
    pi = _solve_linear(chain)
    if _metrics.REGISTRY is not None or _trace.TRACER is not None:
        # The balance residual max|pi Q| is one sparse matvec -- cheap
        # relative to the solve, and only computed when observed.
        residual = float(np.abs(pi @ chain.generator).max())
        if _metrics.REGISTRY is not None:
            reg = _metrics.REGISTRY
            reg.counter("solver.stationary.solves").inc()
            reg.gauge("solver.stationary.residual").set(residual)
        if _trace.TRACER is not None:
            _trace.TRACER.emit(
                "solver.stationary", n_states=chain.n_states, residual=residual
            )
    return pi


def _require_irreducible(chain: CTMC) -> None:
    """Shared with the reference solvers in :mod:`repro.validate.oracles`."""
    if not is_irreducible(chain):
        raise ValueError(
            "chain is not irreducible; stationary distribution is not unique"
        )


def _solve_linear(chain: CTMC) -> np.ndarray:
    n = chain.n_states
    # pi Q = 0  <=>  Q^T pi^T = 0; replace the last equation by sum(pi) = 1.
    # Assembled by stacking CSR blocks -- same matrix as the historical
    # row-replacement on an LIL copy, without the O(nnz) format churn.
    QT = chain.generator.T.tocsr()
    A = sp.vstack([QT[: n - 1, :], np.ones((1, n))], format="csr")
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = scipy.sparse.linalg.spsolve(A, b)
    return _clean(pi)


def _clean(pi: np.ndarray) -> np.ndarray:
    """Zero underflow, reject real negatives, renormalise (shared with
    the reference solvers in :mod:`repro.validate.oracles`)."""
    pi = np.where(np.abs(pi) < 1e-300, 0.0, pi)
    if pi.min() < -1e-9 * max(1.0, pi.max()):
        raise RuntimeError("stationary solve produced a significantly negative entry")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()
