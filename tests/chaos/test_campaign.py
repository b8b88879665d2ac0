"""Chaos campaigns: determinism, zero violations, violation reporting."""

import json

import pytest

from repro.chaos.campaign import (
    CampaignConfig,
    _violation_artifacts,
    run_campaign,
    run_schedule,
)

SMALL = CampaignConfig(seeds=3, duration_s=0.002, drain_s=0.012)


class TestConfig:
    def test_schedule_seeds_distinct_and_stable(self):
        cfg = CampaignConfig(seeds=8)
        seeds = [cfg.schedule_seed(i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [cfg.schedule_seed(i) for i in range(8)]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CampaignConfig(seeds=0)
        with pytest.raises(ValueError):
            CampaignConfig(duration_s=0.0)


class TestSchedule:
    def test_schedule_is_deterministic(self):
        a = run_schedule(SMALL, 0)
        b = run_schedule(SMALL, 0)
        assert a == b

    def test_schedule_summary_shape(self):
        s = run_schedule(SMALL, 1)
        assert s["offered"] == s["delivered"] + s["dropped"]
        assert s["violations"] == []
        json.dumps(s)  # JSON-serialisable throughout


class TestCampaign:
    def test_zero_violations_and_jobs_identical(self):
        r1 = run_campaign(SMALL, jobs=1)
        r2 = run_campaign(SMALL, jobs=2)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["totals"]["violations"] == 0
        assert r1["schema"] == "repro-chaos"
        assert len(r1["schedules"]) == SMALL.seeds

    def test_trace_window_replay_captures_events(self):
        window, incidents = _violation_artifacts(SMALL, 0)
        assert 0 < len(window) <= SMALL.trace_events
        assert all({"seq", "t", "kind", "data"} <= set(ev) for ev in window)
        assert incidents["schema"] == "repro-incidents"


class TestPolicyMatrix:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            run_schedule(
                CampaignConfig(seeds=1, coverage_policy="greedy"), 0
            )

    @pytest.mark.parametrize("base_seed", [0, 1, 12345])
    def test_static_policy_bit_identical_to_default(self, base_seed):
        # coverage_policy="static" must be a pure refactor of the
        # pre-planner-v2 code path: byte-identical schedules (and
        # jobs-independent) for every base seed.
        default = CampaignConfig(
            seeds=2, base_seed=base_seed, duration_s=0.002, drain_s=0.012
        )
        explicit = CampaignConfig(
            seeds=2,
            base_seed=base_seed,
            duration_s=0.002,
            drain_s=0.012,
            coverage_policy="static",
        )
        r1 = run_campaign(default, jobs=1)
        r2 = run_campaign(explicit, jobs=2)
        assert json.dumps(r1["schedules"], sort_keys=True) == json.dumps(
            r2["schedules"], sort_keys=True
        )

    def test_adaptive_policy_holds_invariants_and_jobs_identity(self):
        cfg = CampaignConfig(
            seeds=3, duration_s=0.002, drain_s=0.012, coverage_policy="adaptive"
        )
        r1 = run_campaign(cfg, jobs=1)
        r2 = run_campaign(cfg, jobs=2)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["totals"]["violations"] == 0
        assert r1["config"]["coverage_policy"] == "adaptive"
