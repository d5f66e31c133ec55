"""Pick phase machine and Monte-Carlo campaigns."""

import math
import tracemalloc

import numpy as np
import pytest

from tandemgrip import picksim, wrench
from tandemgrip.config import shipped_calibration
from tandemgrip.picksim import (
    DEFAULT_FIELD_STATS,
    PickOutcome,
    PickPhase,
    ProxyModel,
    TrialStats,
    TRIALS_CSV_HEADER,
    TrialRecord,
    cups_engaged_at,
    run_campaign,
    run_pick,
    trials_to_csv,
)
from tandemgrip.wrench import ActuationMode, GraspModelParams, GraspScenario


@pytest.fixture(scope="module")
def model():
    return shipped_calibration()


@pytest.fixture(scope="module")
def proxy():
    return ProxyModel()


def reference_trial(stats, model, mode, seed, index, engage_rule, occlusion_fail_prob,
                    retries, engaged_attempts=None):
    """One trial on its own, attempt by attempt, with scalar strength solves."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    u = rng.random(7)
    net = float(stats.net_fdf.sample(u[0]))
    tan = float(stats.tangential_fdf.sample(u[1]))
    diameter = float(stats.fruit_diameter.sample(u[2]))
    offset = float(stats.gripper_offset.sample(u[3]))
    stiffness = float(stats.branch_stiffness.sample(u[4]))
    azimuth = 2.0 * math.pi * u[5]
    if occlusion_fail_prob > 0.0 and u[6] < occlusion_fail_prob:
        return TrialRecord(index, net, offset, stiffness, mode, 0.0, PickOutcome.NO_ENGAGE)
    angle = math.degrees(math.asin(min(tan / max(net, 1e-9), 1.0)))
    strengths = {}
    for attempt in range(retries + 1):
        if attempt:
            offset = float(stats.gripper_offset.sample(rng.random()))
        cups = () if mode is ActuationMode.FINGERS else cups_engaged_at(offset, azimuth)
        if mode is ActuationMode.SUCTION:
            engaged = len(cups) >= engage_rule
        else:
            engaged = offset <= picksim.FINGER_CAPTURE_TOL_MM
        if not engaged:
            outcome, strength = PickOutcome.NO_ENGAGE, 0.0
            continue
        if engaged_attempts is not None:
            engaged_attempts.append((index, cups))
        if cups not in strengths:
            scenario = GraspScenario(diameter / 2.0, pull_angle=angle,
                                     mode=mode if cups else ActuationMode.FINGERS)
            strengths[cups] = wrench.predict_strength(scenario, model, cup_indices=cups)
        strength = strengths[cups]
        outcome = PickOutcome.PICKED if strength >= net else PickOutcome.GRASP_SLIP
        if outcome is PickOutcome.PICKED:
            break
    return TrialRecord(index, net, offset, stiffness, mode, strength, outcome)


class TestRunPick:
    def test_dual_picks_with_expected_travel(self, proxy, model):
        state = run_pick(proxy, GraspScenario(37.5, mode=ActuationMode.DUAL), model)
        assert state.outcome is PickOutcome.PICKED
        assert state.phase is PickPhase.DONE
        assert state.travel == pytest.approx(16.0 / 455.0 * 1000.0, abs=1e-9)
        assert round(state.travel, 1) == 35.2

    def test_suction_slips_below_detachment(self, proxy, model):
        state = run_pick(proxy, GraspScenario(37.5, mode=ActuationMode.SUCTION), model)
        assert state.outcome is PickOutcome.GRASP_SLIP
        assert state.strength < proxy.detachment_force

    def test_offset_beyond_cup_tolerance(self, proxy, model):
        state = run_pick(
            proxy,
            GraspScenario(37.5, fruit_offset=36.0, mode=ActuationMode.SUCTION),
            model,
            misalignment_azimuth=math.radians(60.0),
        )
        assert state.outcome is PickOutcome.NO_ENGAGE

    def test_engage_rule_validation(self, proxy, model):
        with pytest.raises(ValueError):
            run_pick(proxy, GraspScenario(37.5), model, engage_rule=0)

    @pytest.mark.parametrize("diameter", [16.0, 240.0])
    def test_fruit_without_default_cam_tracks(self, model, diameter):
        # no default cam tracks can be synthesised for these fruit (sweep
        # clearance, palm envelope); the pick still ends in an outcome
        state = run_pick(ProxyModel(fruit_diameter=diameter),
                         GraspScenario(diameter / 2.0, mode=ActuationMode.DUAL), model)
        assert state.phase is PickPhase.DONE
        assert state.outcome is PickOutcome.PICKED

    def test_outcome_not_pending_when_done(self, proxy, model):
        state = run_pick(proxy, GraspScenario(37.5, mode=ActuationMode.DUAL), model)
        assert state.phase is PickPhase.DONE
        assert state.outcome is not PickOutcome.PENDING


class TestEngagement:
    def test_centered_fruit_engages_all(self):
        assert cups_engaged_at(0.0, 0.0) == (0, 1, 2)

    def test_large_offset_toward_cup_loses_far_cups(self):
        assert cups_engaged_at(36.0, math.radians(60.0)) == (0,)

    def test_partial_engagement_band(self):
        assert cups_engaged_at(25.0, math.radians(0.0)) == (0, 2)


class TestCampaign:
    def test_single_trial_deterministic(self, model):
        r1 = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 1, seed=7)
        r2 = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 1, seed=7)
        assert r1.log == r2.log
        assert r1.success_rate == r2.success_rate

    def test_breakdown_sums_to_trials(self, model):
        r = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.SUCTION, 50, seed=3)
        assert sum(r.breakdown.values()) == r.trials == 50

    def test_threshold_coherence(self, model):
        r = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 120, seed=5)
        for rec in r.log:
            if rec.outcome is PickOutcome.PICKED:
                assert rec.strength >= rec.fdf
            elif rec.outcome is PickOutcome.GRASP_SLIP:
                assert rec.strength < rec.fdf

    def test_capacity_monotonicity_under_shared_seed(self, model):
        weaker = GraspModelParams(
            model.pad_force * 0.7, model.mu_pad * 0.9,
            model.suction_axial * 0.8, model.shear_fraction,
        )
        lo = run_campaign(DEFAULT_FIELD_STATS, weaker, ActuationMode.DUAL, 150, seed=11)
        hi = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 150, seed=11)
        assert hi.success_rate >= lo.success_rate

    def test_thread_count_invariance(self, model):
        r1 = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.SUCTION, 60, seed=2)
        r4 = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.SUCTION, 60, seed=2,
                          threads=4)
        assert r1.log == r4.log

    def test_occlusion_probability_lowers_success(self, model):
        base = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 200, seed=13)
        occl = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 200, seed=13,
                            occlusion_fail_prob=0.5)
        assert occl.success_rate < base.success_rate

    def test_retries_weakly_increase_success(self, model):
        # picked trials never retry, failed trials get more chances
        base = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.SUCTION, 150, seed=17)
        retry = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.SUCTION, 150, seed=17,
                             retries=2)
        assert retry.success_rate >= base.success_rate

    def test_negative_retries_rejected(self, model):
        with pytest.raises(ValueError):
            run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 1, seed=0,
                         retries=-1)

    @pytest.mark.parametrize("rule", [0, 4])
    def test_engage_rule_validation(self, model, rule):
        with pytest.raises(ValueError):
            run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.SUCTION, 1, seed=0,
                         engage_rule=rule)

    @pytest.mark.parametrize("mode", [ActuationMode.SUCTION, ActuationMode.FINGERS])
    def test_retry_log_independent_of_earlier_campaigns(self, model, mode):
        def campaign():
            return run_campaign(DEFAULT_FIELD_STATS, model, mode, 40, seed=23, retries=2)

        cold = campaign()
        run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 40, seed=23, retries=2)
        assert campaign().log == cold.log

    @pytest.mark.parametrize("mode", list(ActuationMode))
    def test_one_solve_per_engaged_cup_set_per_trial(self, model, mode, monkeypatch):
        solves = []
        real_solve = wrench.solve_pull_batch

        def solve_pull_batch(problems):
            solves.extend(problems)
            return real_solve(problems)

        engaged_attempts = []
        monkeypatch.setattr(wrench, "solve_pull_batch", solve_pull_batch)
        batched = run_campaign(DEFAULT_FIELD_STATS, model, mode, 30, seed=29, retries=3)
        reference = [reference_trial(DEFAULT_FIELD_STATS, model, mode, 29, i, 2, 0.0, 3,
                                     engaged_attempts) for i in range(30)]
        assert batched.log == tuple(reference)
        assert len(solves) == len(set(engaged_attempts)) > 0
        # retries do land on cup sets the trial has already solved
        assert len(engaged_attempts) > len(set(engaged_attempts))

    @pytest.mark.parametrize("occlusion", [0.0, 0.3])
    @pytest.mark.parametrize("retries", [0, 1, 3])
    @pytest.mark.parametrize("mode", list(ActuationMode))
    def test_matches_one_trial_at_a_time(self, model, mode, retries, occlusion):
        batched = run_campaign(DEFAULT_FIELD_STATS, model, mode, 80, seed=37,
                               occlusion_fail_prob=occlusion, retries=retries)
        reference = tuple(reference_trial(DEFAULT_FIELD_STATS, model, mode, 37, i, 2,
                                          occlusion, retries) for i in range(80))
        assert batched.log == reference

    def test_block_size_does_not_change_log(self, model, monkeypatch):
        whole = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 50, seed=41,
                             occlusion_fail_prob=0.2, retries=2)
        monkeypatch.setattr(picksim, "CAMPAIGN_BLOCK", 7)
        blocks = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 50, seed=41,
                              occlusion_fail_prob=0.2, retries=2)
        assert blocks.log == whole.log

    def test_retry_offsets_drawn_only_when_used(self):
        # a trial waiting for its first strength has drawn one offset, not one
        # per allowed retry, so memory does not grow with ``retries``
        tracemalloc.start()
        try:
            trial = picksim._run_trial(DEFAULT_FIELD_STATS, ActuationMode.DUAL, 43, 0,
                                       engage_rule=2, occlusion_fail_prob=0.0,
                                       retries=10**6)
            next(trial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, model, threads):
        with pytest.raises(ValueError):
            run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 1, seed=0,
                         threads=threads)

    def test_trials_csv(self, model):
        r = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 5, seed=1)
        text = trials_to_csv(r.log)
        lines = text.strip().splitlines()
        assert lines[0] == TRIALS_CSV_HEADER
        assert len(lines) == 6


class TestTrialStats:
    def test_json_round_trip(self):
        clone = TrialStats.from_json(DEFAULT_FIELD_STATS.to_json())
        assert clone == DEFAULT_FIELD_STATS

    def test_proxy_validation(self):
        with pytest.raises(ValueError):
            ProxyModel(detachment_force=-1.0)


class TestSummarizeCsv:
    def test_shipped_sample_matches_builtin(self, tmp_path):
        from tandemgrip.config import data_text
        from tandemgrip.picksim import summarize_csv
        p = tmp_path / "log.csv"
        p.write_text(data_text("field_log_sample.csv"))
        assert summarize_csv(p) == DEFAULT_FIELD_STATS

    def test_missing_column(self, tmp_path):
        from tandemgrip.errors import ParseError
        from tandemgrip.picksim import summarize_csv
        p = tmp_path / "log.csv"
        p.write_text("net_fdf_N\n7\n15\n38\n")
        with pytest.raises(ParseError):
            summarize_csv(p)

    def test_single_row_log(self, tmp_path):
        from tandemgrip.picksim import summarize_csv
        p = tmp_path / "log.csv"
        p.write_text(
            "fruit_diameter_mm,fruit_height_mm,fruit_weight_g,net_fdf_N,"
            "tangential_fdf_N,normal_fdf_N,branch_stiffness_Npm,gripper_offset_mm\n"
            "78,73,235,15,7,12,410,10\n"
        )
        stats = summarize_csv(p)
        assert stats.net_fdf.as_tuple() == (15, 15, 15, 15, 15)
