"""Pick phase machine and Monte-Carlo campaigns."""

import math

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
        real_solve = wrench.solve_pull

        def solve_pull(*args, **kwargs):
            solves.append(1)
            return real_solve(*args, **kwargs)

        trial = []
        real_trial = picksim._run_trial

        def run_trial(*args):
            trial.append(args[4])   # the trial index
            return real_trial(*args)

        engaged_attempts = []
        real_attempt = picksim._attempt

        def attempt(*args):
            cups, outcome, strength = real_attempt(*args)
            if outcome is not PickOutcome.NO_ENGAGE:
                engaged_attempts.append((trial[-1], cups))
            return cups, outcome, strength

        monkeypatch.setattr(wrench, "solve_pull", solve_pull)
        monkeypatch.setattr(picksim, "_run_trial", run_trial)
        monkeypatch.setattr(picksim, "_attempt", attempt)
        run_campaign(DEFAULT_FIELD_STATS, model, mode, 30, seed=29, retries=3)
        assert len(solves) == len(set(engaged_attempts)) > 0
        # retries do land on cup sets the trial has already solved
        assert len(engaged_attempts) > len(set(engaged_attempts))

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
