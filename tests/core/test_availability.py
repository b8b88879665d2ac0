"""Availability-model tests."""

import pytest

from repro.core import (
    DRAConfig,
    FailureRates,
    RepairPolicy,
    bdr_availability,
    dra_availability,
)
from repro.core.availability import (
    build_bdr_availability_chain,
    build_dra_availability_chain,
)
from repro.core.states import AllHealthy, Failed
from repro.markov import stationary_distribution
from repro.markov.stationary import is_irreducible
from repro.validate.oracles import stationary_distribution_nullspace


class TestChains:
    def test_bdr_chain_irreducible(self):
        assert is_irreducible(build_bdr_availability_chain())

    def test_dra_chain_irreducible(self):
        assert is_irreducible(build_dra_availability_chain(DRAConfig(n=6, m=3)))

    def test_repair_edges_target_all_healthy(self):
        chain = build_dra_availability_chain(
            DRAConfig(n=4, m=2), RepairPolicy(mu=0.5)
        )
        for s in chain.states:
            if s != AllHealthy:
                assert chain.rate(s, AllHealthy) >= 0.5


class TestBDRAvailability:
    def test_closed_form(self):
        for mu in (1.0 / 3.0, 1.0 / 12.0):
            res = bdr_availability(RepairPolicy(mu=mu))
            assert res.availability == pytest.approx(mu / (mu + 2e-5), rel=1e-12)

    def test_faster_repair_higher_availability(self):
        fast = bdr_availability(RepairPolicy.three_hours()).availability
        slow = bdr_availability(RepairPolicy.half_day()).availability
        assert fast > slow


class TestDRAAvailability:
    def test_dra_beats_bdr(self):
        for rp in (RepairPolicy.three_hours(), RepairPolicy.half_day()):
            a_dra = dra_availability(DRAConfig(n=3, m=2), rp).availability
            a_bdr = bdr_availability(rp).availability
            assert a_dra > a_bdr

    def test_monotone_in_n(self):
        rp = RepairPolicy.three_hours()
        values = [
            dra_availability(DRAConfig(n=n, m=2), rp).availability
            for n in (3, 5, 7, 9)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_stationary_methods_agree(self):
        chain = build_dra_availability_chain(DRAConfig(n=6, m=3))
        a = stationary_distribution(chain)
        b = stationary_distribution_nullspace(chain)
        f = chain.index_of(Failed)
        assert a[f] == pytest.approx(b[f], rel=1e-4)

    def test_result_properties(self):
        res = dra_availability(DRAConfig(n=3, m=2))
        assert res.unavailability == pytest.approx(1.0 - res.availability)
        assert res.nines >= 7
        assert res.notation.startswith("9^")
        assert res.downtime_minutes_per_year < 1.0

    def test_custom_rates(self):
        worse = FailureRates().scaled(100.0)
        a_bad = dra_availability(DRAConfig(n=3, m=2), rates=worse).availability
        a_good = dra_availability(DRAConfig(n=3, m=2)).availability
        assert a_bad < a_good
