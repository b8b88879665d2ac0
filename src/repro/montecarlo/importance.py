"""Rare-event availability estimation by importance sampling.

The paper's DRA availability figures sit at unavailabilities of 1e-8 to
1e-10.  Naive trajectory sampling would need ~1e11 regenerative cycles to
see a single LC outage, so standard Monte Carlo *cannot* check Figure 7
-- a gap this module closes with the classic **balanced failure biasing**
estimator (Shahabuddin-style) on regenerative cycles:

1. A cycle starts in the all-healthy state and ends on the first return
   to it.
2. Under the *biased* measure, whenever both failure and repair
   transitions are available, failure transitions jointly receive
   probability ``bias`` (spread evenly among them -- "balanced"),
   steering the walk toward the failed state.
3. Sojourn times stay exponential with the original exit rates, so only
   the jump probabilities are reweighted; each cycle carries the
   likelihood ratio of its jump sequence.
4. Unavailability = E[downtime per cycle] / E[cycle length] by the
   renewal-reward theorem; the numerator uses the biased measure with
   likelihood weights, the denominator plain sampling (it is not rare).

The estimator returns a point estimate with a delta-method standard
error, and is validated in the benches against the exact stationary
solve across six orders of magnitude of rarity.

The simulation advances all cycles of a batch in lockstep -- one numpy
step per jump *depth*, not per jump -- against per-state cumulative jump
distributions precomputed once into padded matrices.  Cycles that
regenerate drop out of the active set; the per-cycle jump cap applies to
the lockstep depth, which bounds every cycle's length exactly as a
one-jump-at-a-time loop does.  That loop is kept as the independent
reference in :mod:`repro.validate.oracles`: the differential tests check
the batched kernels against it, and ``bench --suite throughput``
measures the batched/scalar speedup (the perf-regression gate pins it).
The two consume the ``numpy.random.Generator`` stream differently, so
for a fixed seed they give *statistically identical*, not bit-identical,
results.  Each is a pure function of the seed, which is what the
parallel driver's bit-identical-across-``--jobs`` contract needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.markov.ctmc import CTMC
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "CycleStatistics",
    "ImportanceSamplingResult",
    "collect_cycle_statistics",
    "result_from_statistics",
    "unavailability_importance_sampling",
]


@dataclass(frozen=True)
class CycleStatistics:
    """Sufficient statistics of a batch of regenerative cycles.

    Everything the estimator needs reduces to sums, so batches simulated
    independently (e.g. on different worker processes with spawned RNG
    streams) merge exactly: field-wise addition loses nothing.  This is
    what makes the parallel driver in :mod:`repro.runtime.montecarlo`
    deterministic -- per-chunk statistics are identical wherever the chunk
    runs, and merging in chunk order fixes the floating-point summation
    order.
    """

    n_plain: int
    length_sum: float
    length_sumsq: float
    n_biased: int
    downtime_sum: float
    downtime_sumsq: float
    hits: int

    def merge(self, other: "CycleStatistics") -> "CycleStatistics":
        """Combine two independent batches (field-wise addition)."""
        return CycleStatistics(
            n_plain=self.n_plain + other.n_plain,
            length_sum=self.length_sum + other.length_sum,
            length_sumsq=self.length_sumsq + other.length_sumsq,
            n_biased=self.n_biased + other.n_biased,
            downtime_sum=self.downtime_sum + other.downtime_sum,
            downtime_sumsq=self.downtime_sumsq + other.downtime_sumsq,
            hits=self.hits + other.hits,
        )


@dataclass(frozen=True)
class ImportanceSamplingResult:
    """Outcome of a failure-biasing run."""

    unavailability: float
    std_error: float
    n_cycles: int
    mean_cycle_length: float
    #: fraction of biased cycles that visited the rare (failed) state
    hit_fraction: float

    @property
    def availability(self) -> float:
        """``1 - unavailability``."""
        return 1.0 - self.unavailability

    def consistent_with(self, exact: float, *, z: float = 5.0) -> bool:
        """True when ``exact`` lies within ``z`` standard errors."""
        return abs(self.unavailability - exact) <= z * self.std_error


class _Rows:
    """Per-state jump structure with failure/repair classification.

    A transition out of state ``i`` is classified as *repair* if it moves
    toward the regeneration state's neighborhood (here: any transition
    whose rate is at least ``repair_threshold`` times the largest failure
    rate -- the dependability chains have a clean scale gap of ~1e4
    between repair (~1e-1/h) and failure (~1e-5/h) rates).
    """

    def __init__(self, chain: CTMC, repair_threshold: float, bias: float) -> None:
        Q = chain.generator
        n = chain.n_states
        indptr, indices, data = Q.indptr, Q.indices, Q.data
        self.exit = chain.exit_rates()
        self.targets: list[np.ndarray] = []
        self.probs: list[np.ndarray] = []
        self.is_repair: list[np.ndarray] = []
        self.biased: list[np.ndarray] = []
        for i in range(n):
            cols = indices[indptr[i]:indptr[i + 1]]
            rates = data[indptr[i]:indptr[i + 1]]
            mask = (cols != i) & (rates > 0.0)
            cols, rates = cols[mask], rates[mask]
            self.targets.append(cols.astype(np.int64))
            total = rates.sum()
            probs = rates / total if total > 0 else rates
            self.probs.append(probs)
            # Scale-gap classification: "fast" transitions are repairs.
            cutoff = repair_threshold * (rates.min() if rates.size else 1.0)
            repair = rates >= cutoff
            self.is_repair.append(repair)
            self.biased.append(_balanced_bias(probs, repair, bias))

        # Padded-matrix form for the lockstep-batched kernels: row ``i``
        # holds state ``i``'s cumulative jump distributions, padded with
        # 1.0 so a uniform draw below 1 never lands past the true
        # out-degree (``last_slot`` guards the float-roundoff edge the
        # reference loop guards with ``min(k, size - 1)``).
        degree = np.array([t.size for t in self.targets], dtype=np.int64)
        width = max(int(degree.max()) if degree.size else 1, 1)
        self.last_slot = np.maximum(degree - 1, 0)
        self.pad_targets = np.zeros((n, width), dtype=np.int64)
        self.plain_cum = np.ones((n, width))
        self.biased_cum = np.ones((n, width))
        self.ratio = np.ones((n, width))
        for i in range(n):
            d = int(degree[i])
            if d == 0:
                continue
            self.pad_targets[i, :d] = self.targets[i]
            self.pad_targets[i, d:] = self.targets[i][-1]
            self.plain_cum[i, :d] = np.cumsum(self.probs[i])
            self.biased_cum[i, :d] = np.cumsum(self.biased[i])
            self.ratio[i, :d] = self.probs[i] / self.biased[i]


def _balanced_bias(probs: np.ndarray, repair: np.ndarray, bias: float) -> np.ndarray:
    """The balanced-failure-biased jump distribution of one state.

    Failures share ``bias`` evenly, repairs share the rest
    proportionally; states with only one transition kind keep their
    plain distribution.
    """
    n_fail = int((~repair).sum())
    if not 0 < n_fail < probs.size:
        return probs
    biased = np.empty_like(probs)
    biased[~repair] = bias / n_fail
    repair_total = probs[repair].sum()
    biased[repair] = (1.0 - bias) * probs[repair] / repair_total
    return biased


def unavailability_importance_sampling(
    chain: CTMC,
    failed_state: object,
    n_cycles: int,
    rng: np.random.Generator,
    *,
    regeneration_state: object | None = None,
    bias: float = 0.5,
    repair_threshold: float = 100.0,
    max_jumps_per_cycle: int = 100_000,
) -> ImportanceSamplingResult:
    """Estimate steady-state unavailability by balanced failure biasing.

    Parameters
    ----------
    chain:
        Irreducible repairable CTMC.
    failed_state:
        The state whose occupancy defines unavailability (the paper's F).
    n_cycles:
        Regenerative cycles to simulate (half plain for the denominator,
        half biased for the numerator).
    regeneration_state:
        Cycle anchor; defaults to state index 0 (the all-healthy state in
        the dependability chains).
    bias:
        Total jump probability given to failure transitions when both
        kinds are available (0.5 is the standard choice).
    repair_threshold:
        Rate ratio separating repair from failure transitions.
    """
    return result_from_statistics(
        collect_cycle_statistics(
            chain,
            failed_state,
            n_cycles,
            rng,
            regeneration_state=regeneration_state,
            bias=bias,
            repair_threshold=repair_threshold,
            max_jumps_per_cycle=max_jumps_per_cycle,
        )
    )


def collect_cycle_statistics(
    chain: CTMC,
    failed_state: object,
    n_cycles: int,
    rng: np.random.Generator,
    *,
    regeneration_state: object | None = None,
    bias: float = 0.5,
    repair_threshold: float = 100.0,
    max_jumps_per_cycle: int = 100_000,
) -> CycleStatistics:
    """Simulate ``n_cycles`` cycles and return their sufficient statistics.

    Half the cycles run plain (for the denominator's cycle lengths), half
    biased (for the numerator's likelihood-weighted downtimes) -- exactly
    the split :func:`unavailability_importance_sampling` uses.
    Independent batches combine via :meth:`CycleStatistics.merge`.
    """
    rows, regen, failed, n_plain, n_biased = _cycle_setup(
        chain, failed_state, n_cycles, regeneration_state, bias, repair_threshold
    )
    # denominator: E[cycle length]; numerator: E[weighted downtime].
    lengths = _plain_cycle_lengths_batch(
        rows, regen, n_plain, rng, max_jumps_per_cycle
    )
    downtimes, hit_flags = _biased_cycle_downtimes_batch(
        rows, regen, failed, n_biased, rng, max_jumps_per_cycle
    )
    return _cycle_statistics(chain, bias, lengths, downtimes, hit_flags)


def _cycle_setup(
    chain: CTMC,
    failed_state: object,
    n_cycles: int,
    regeneration_state: object | None,
    bias: float,
    repair_threshold: float,
) -> tuple[_Rows, int, int, int, int]:
    """Validate a cycle run; return ``(rows, regen, failed, n_plain,
    n_biased)``."""
    if not 0.0 < bias < 1.0:
        raise ValueError(f"bias must lie in (0, 1), got {bias}")
    if n_cycles < 2:
        raise ValueError("need at least 2 cycles")
    regen = 0 if regeneration_state is None else chain.index_of(regeneration_state)
    failed = chain.index_of(failed_state)
    if failed == regen:
        raise ValueError("failed state cannot anchor the regeneration cycles")
    n_plain = n_cycles // 2
    rows = _Rows(chain, repair_threshold, bias)
    return rows, regen, failed, n_plain, n_cycles - n_plain


def _cycle_statistics(
    chain: CTMC,
    bias: float,
    lengths: np.ndarray,
    downtimes: np.ndarray,
    hit_flags: np.ndarray,
) -> CycleStatistics:
    """Reduce simulated cycles to their sums, counting metrics and trace."""
    n_cycles = lengths.size + downtimes.size
    hits = int(np.count_nonzero(hit_flags))
    if _metrics.REGISTRY is not None:
        reg = _metrics.REGISTRY
        reg.counter("mc.is.cycles").inc(n_cycles)
        reg.counter("mc.is.rare_hits").inc(hits)
    if _trace.TRACER is not None:
        _trace.TRACER.emit(
            "solver.importance_sampling",
            n_states=chain.n_states,
            n_cycles=n_cycles,
            rare_hits=hits,
            bias=bias,
        )
    return CycleStatistics(
        n_plain=lengths.size,
        length_sum=float(lengths.sum()),
        length_sumsq=float(np.square(lengths).sum()),
        n_biased=downtimes.size,
        downtime_sum=float(downtimes.sum()),
        downtime_sumsq=float(np.square(downtimes).sum()),
        hits=hits,
    )


def result_from_statistics(stats: CycleStatistics) -> ImportanceSamplingResult:
    """Turn (possibly merged) cycle statistics into the point estimate.

    Uses the same renewal-reward ratio and delta-method standard error as
    the original single-batch estimator, with sample variances recovered
    from the sums via ``var = (sumsq - n * mean^2) / (n - 1)``.
    """
    if stats.n_plain < 1 or stats.n_biased < 1:
        raise ValueError("need at least one plain and one biased cycle")
    mean_len = stats.length_sum / stats.n_plain
    mean_down = stats.downtime_sum / stats.n_biased
    u = mean_down / mean_len if mean_len > 0 else float("inf")
    # Delta-method standard error for a ratio of independent means.
    var_len = _sample_variance(stats.length_sum, stats.length_sumsq, stats.n_plain)
    var_down = _sample_variance(stats.downtime_sum, stats.downtime_sumsq, stats.n_biased)
    var_len /= stats.n_plain
    var_down /= stats.n_biased
    se = (
        np.sqrt(var_down / mean_len**2 + (mean_down**2 / mean_len**4) * var_len)
        if mean_len > 0
        else float("inf")
    )
    return ImportanceSamplingResult(
        unavailability=u,
        std_error=float(se),
        n_cycles=stats.n_plain + stats.n_biased,
        mean_cycle_length=mean_len,
        hit_fraction=stats.hits / stats.n_biased,
    )


def _sample_variance(total: float, total_sq: float, n: int) -> float:
    """Unbiased sample variance from sum and sum of squares (ddof=1)."""
    if n < 2:
        return 0.0
    mean = total / n
    return max(total_sq - n * mean * mean, 0.0) / (n - 1)


def _plain_cycle_lengths_batch(
    rows: _Rows, regen: int, n: int, rng: np.random.Generator, max_jumps: int
) -> np.ndarray:
    """``n`` plain cycle lengths, all cycles advanced in lockstep.

    Each loop iteration performs exactly one jump for every still-active
    cycle: draw the batch of sojourn times, pick the batch of jump
    targets against the padded cumulative distributions, retire the
    cycles that returned to the regeneration anchor.
    """
    lengths = np.zeros(n)
    state = np.full(n, regen, dtype=np.int64)
    active = np.arange(n)
    for _ in range(max_jumps):
        if active.size == 0:
            return lengths
        s = state[active]
        lengths[active] += rng.standard_exponential(active.size) / rows.exit[s]
        u = rng.random(active.size)
        k = (rows.plain_cum[s] <= u[:, np.newaxis]).sum(axis=1)
        k = np.minimum(k, rows.last_slot[s])
        nxt = rows.pad_targets[s, k]
        state[active] = nxt
        active = active[nxt != regen]
    if active.size == 0:
        return lengths
    raise RuntimeError("cycle did not regenerate within max_jumps")


def _biased_cycle_downtimes_batch(
    rows: _Rows,
    regen: int,
    failed: int,
    n: int,
    rng: np.random.Generator,
    max_jumps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` biased cycles in lockstep: (weighted downtimes, hit flags).

    The likelihood weight of a cycle multiplies the plain/biased
    probability ratio of *every* jump up to regeneration, exactly as the
    reference per-jump loop accumulates it; the downtime sum picks up the sojourn
    times spent in the failed state along the way.
    """
    downtime = np.zeros(n)
    weight = np.ones(n)
    hit = np.zeros(n, dtype=bool)
    state = np.full(n, regen, dtype=np.int64)
    active = np.arange(n)
    for _ in range(max_jumps):
        if active.size == 0:
            return downtime * weight, hit
        s = state[active]
        dwell = rng.standard_exponential(active.size) / rows.exit[s]
        in_failed = s == failed
        if in_failed.any():
            idx = active[in_failed]
            downtime[idx] += dwell[in_failed]
            hit[idx] = True
        u = rng.random(active.size)
        k = (rows.biased_cum[s] <= u[:, np.newaxis]).sum(axis=1)
        k = np.minimum(k, rows.last_slot[s])
        weight[active] *= rows.ratio[s, k]
        nxt = rows.pad_targets[s, k]
        state[active] = nxt
        active = active[nxt != regen]
    if active.size == 0:
        return downtime * weight, hit
    raise RuntimeError("biased cycle did not regenerate within max_jumps")
