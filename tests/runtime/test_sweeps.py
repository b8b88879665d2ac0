"""Parallel sweeps must be indistinguishable from their serial originals."""

import numpy as np

from repro.analysis.sweep import (
    availability_sweep,
    performance_sweep,
    reliability_sweep,
)
from repro.core import RepairPolicy
from repro.runtime import (
    ResultCache,
    parallel_availability_sweep,
    parallel_performance_sweep,
    parallel_reliability_sweep,
)

TIMES = np.linspace(0.0, 100_000.0, 6)
CONFIGS = [(3, 2), (5, 3), (9, 4)]


class TestReliabilitySweep:
    def test_matches_serial_records_exactly(self):
        serial = reliability_sweep(times=TIMES, configs=CONFIGS)
        for jobs in (1, 2):
            assert parallel_reliability_sweep(
                times=TIMES, configs=CONFIGS, jobs=jobs
            ) == serial

    def test_variant_and_no_bdr_forwarded(self):
        serial = reliability_sweep(
            times=TIMES, configs=[(4, 2)], variant="extended", include_bdr=False
        )
        parallel = parallel_reliability_sweep(
            times=TIMES, configs=[(4, 2)], variant="extended",
            include_bdr=False, jobs=2,
        )
        assert parallel == serial

    def test_cache_round_trip_preserves_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = parallel_reliability_sweep(
            times=TIMES, configs=CONFIGS, jobs=1, cache=cache
        )
        assert cache.misses == len(CONFIGS) + 1  # +1 for the BDR curve
        warm = parallel_reliability_sweep(
            times=TIMES, configs=CONFIGS, jobs=1, cache=cache
        )
        assert warm == cold
        assert cache.hits == len(CONFIGS) + 1

    def test_cache_key_separates_variants(self, tmp_path):
        cache = ResultCache(tmp_path)
        paper = parallel_reliability_sweep(
            times=TIMES, configs=[(3, 2)], include_bdr=False, cache=cache
        )
        extended = parallel_reliability_sweep(
            times=TIMES, configs=[(3, 2)], include_bdr=False,
            variant="extended", cache=cache,
        )
        assert cache.hits == 0
        assert paper != extended


class TestAvailabilitySweep:
    def test_matches_serial_records_exactly(self):
        serial = availability_sweep(configs=CONFIGS)
        for jobs in (1, 2):
            assert parallel_availability_sweep(configs=CONFIGS, jobs=jobs) == serial

    def test_custom_repairs_forwarded(self):
        repairs = [RepairPolicy(mu=0.1)]
        serial = availability_sweep(configs=[(3, 2)], repairs=repairs)
        assert parallel_availability_sweep(
            configs=[(3, 2)], repairs=repairs, jobs=2
        ) == serial

    def test_cache_hits_on_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = parallel_availability_sweep(configs=[(3, 2)], cache=cache)
        warm = parallel_availability_sweep(configs=[(3, 2)], cache=cache)
        assert warm == cold
        # Two repair policies x (BDR + one config) = 4 units each way.
        assert cache.misses == 4 and cache.hits == 4


class TestPerformanceSweep:
    def test_matches_serial_records_exactly(self):
        assert parallel_performance_sweep() == performance_sweep()

    def test_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = parallel_performance_sweep(cache=cache)
        warm = parallel_performance_sweep(cache=cache)
        assert warm == cold and cache.hits == 1
