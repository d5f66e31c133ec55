"""Monte-Carlo pick campaigns and the trial grasp they rest on."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from tandemgrip import picksim, wrench
from tandemgrip.config import shipped_calibration
from tandemgrip.errors import ParseError
from tandemgrip.picksim import (
    DEFAULT_FIELD_STATS,
    PickOutcome,
    TrialStats,
    TRIALS_CSV_HEADER,
    TrialRecord,
    cups_engaged_at,
    run_campaign,
    trials_to_csv,
)
from tandemgrip.quantiles import QuantileModel
from tandemgrip.wrench import ActuationMode, GraspModelParams, GraspScenario, PullType
from test_wrench import ieee_norm


@pytest.fixture(scope="module")
def model():
    return shipped_calibration()


def reference_trial(stats, model, mode, seed, index, occlusion_fail_prob, retries,
                    engaged_attempts=None):
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
            engaged = len(cups) >= picksim.SUCTION_ENGAGE_CUPS
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
    """One pick of a campaign trial: its engagement and strength, checked on its parts."""

    def test_offset_beyond_cup_tolerance(self):
        # a suction trial whose fruit sits 36 mm off at 60 deg records NO_ENGAGE
        # without asking for a strength
        offset, azimuth = 36.0, math.radians(60.0)
        [first] = picksim._engage(ActuationMode.SUCTION, [offset], [azimuth])
        draws = (20.0, 5.0, 75.0, offset, 300.0, azimuth, False)
        trial = picksim._run_trial(DEFAULT_FIELD_STATS, ActuationMode.SUCTION, 0, 0,
                                   np.random.default_rng(0), draws, first)
        with pytest.raises(StopIteration) as stop:
            next(trial)
        record = stop.value.value
        assert record.outcome is PickOutcome.NO_ENGAGE
        assert record.strength == 0.0

    def test_two_of_three_cups_engage_suction(self):
        # one side of SUCTION_ENGAGE_CUPS: two cups reach the pull
        assert picksim.SUCTION_ENGAGE_CUPS == 2
        assert picksim._engage(ActuationMode.SUCTION, [25.0], [0.0]) == [((0, 2), True)]

    def test_one_cup_does_not_engage_suction(self):
        # the other side: one cup stops before the pull
        assert cups_engaged_at(36.0, math.radians(60.0)) == (0,)
        assert picksim._engage(ActuationMode.SUCTION, [36.0], [math.radians(60.0)]) == [
            ((0,), False)]

    @pytest.mark.parametrize("diameter", [16.0, 240.0])
    def test_fruit_without_default_cam_tracks(self, model, diameter):
        # no default cam tracks can be synthesised for these fruit (sweep
        # clearance, palm envelope); the grasp strength needs none
        scenario = GraspScenario(diameter / 2.0, mode=ActuationMode.DUAL)
        assert wrench.predict_strength(scenario, model) > 0.0

    def test_rotational_suction_pull(self, model):
        scenario = GraspScenario(37.5, pull_angle=90.0, pull_type=PullType.ROTATIONAL,
                                 mode=ActuationMode.SUCTION)
        strength = wrench.predict_strength(scenario, model,
                                           cup_indices=cups_engaged_at(10.0, 0.0))
        assert round(strength, 2) == 4.51   # 8.96 N as an axial pull


class TestEngagement:
    def test_centered_fruit_engages_all(self):
        assert cups_engaged_at(0.0, 0.0) == (0, 1, 2)

    def test_large_offset_toward_cup_loses_far_cups(self):
        assert cups_engaged_at(36.0, math.radians(60.0)) == (0,)

    def test_partial_engagement_band(self):
        assert cups_engaged_at(25.0, math.radians(0.0)) == (0, 2)

    @pytest.mark.parametrize("offset,azimuth,name", [
        (math.nan, 0.0, "offset"), (math.inf, 0.0, "offset"), ("1", 0.0, "offset"),
        (True, 0.0, "offset"), (10.0, math.inf, "azimuth"), (10.0, -math.inf, "azimuth"),
        (10.0, math.nan, "azimuth"), (10.0, None, "azimuth"),
    ])
    def test_bad_input_names_the_parameter(self, offset, azimuth, name):
        # a NaN offset engaged no cup, a bool engaged all three, and an infinite
        # azimuth or a string failed without naming the parameter
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cups_engaged_at(offset, azimuth)

    def test_block_mask_matches_one_trial_at_the_boundary(self):
        # fruit axes at the reach of each cup, nudged a few ulps either way:
        # the block mask, the one-trial case and the per-cup ieee_norm rule
        # agree on every one
        reach = picksim.CUP_RING_MM + picksim.CUP_ENGAGE_TOL_MM
        offsets, azimuths = [], []
        for lon in wrench.CUP_LONGITUDES_DEG:
            cup = picksim.CUP_RING_MM * np.array([math.cos(math.radians(lon)),
                                                  math.sin(math.radians(lon))])
            for t in np.linspace(0.0, 2.0 * math.pi, 97):
                x, y = cup + reach * np.array([math.cos(t), math.sin(t)])
                offset, azimuth = math.hypot(x, y), math.atan2(y, x)
                for ulps in range(-4, 5):
                    offsets.append(offset + ulps * math.ulp(offset))
                    azimuths.append(azimuth)

        def norm_rule(offset, azimuth):
            fruit = offset * np.array([math.cos(azimuth), math.sin(azimuth)])
            return tuple(i for i, lon in enumerate(wrench.CUP_LONGITUDES_DEG)
                         if ieee_norm(picksim.CUP_RING_MM * np.array(
                             [math.cos(math.radians(lon)), math.sin(math.radians(lon))])
                             - fruit) <= reach)

        block = picksim._cup_sets(offsets, azimuths)
        one = [cups_engaged_at(o, a) for o, a in zip(offsets, azimuths)]
        assert block == one == [norm_rule(o, a) for o, a in zip(offsets, azimuths)]
        # the nudges straddle the boundary: every cup is both reached and missed
        for i in range(3):
            assert 0 < sum(i in cups for cups in block) < len(block)


class TestBlockSampling:
    EDGE_MODELS = [
        QuantileModel(1.0, 1.0, 1.0, 1.0, 1.0),
        QuantileModel(0.0, 2.0, 2.0, 2.0, 5.0),
        QuantileModel(-3.0, -3.0, 0.5, 7.0, 7.0),
    ]
    U = np.concatenate([
        [0.0, 1.0, 0.25, 0.5, 0.75, np.nextafter(0.25, 0.0), np.nextafter(0.75, 1.0),
         np.nextafter(1.0, 0.0), 5e-324],
        np.random.default_rng(3).random(200),
    ])

    @pytest.mark.parametrize("model", [
        *(getattr(DEFAULT_FIELD_STATS, name) for name in TrialStats.__dataclass_fields__),
        *EDGE_MODELS,
    ])
    @pytest.mark.parametrize("size", [1, 4, 5, 209])
    def test_block_sample_matches_per_variate_bytes(self, model, size):
        # a block of fewer variates than quantiles, and of more, takes
        # np.interp's two slope paths
        u = self.U[:size]
        block = model.sample(u).tolist()
        alone = [float(model.sample(x)) for x in u]
        assert np.array(block).tobytes() == np.array(alone).tobytes()


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

    def test_log_independent_of_block_size(self, model, monkeypatch):
        # trials run in blocks of CAMPAIGN_BLOCK, each block in rounds of
        # batched solves: the log must not depend on that execution order
        def campaign():
            return run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 150, seed=29,
                                occlusion_fail_prob=0.1, retries=2)

        whole = campaign()
        monkeypatch.setattr(picksim, "CAMPAIGN_BLOCK", 7)
        assert campaign() == whole

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
        real_solve = wrench.solve_lp_batch

        def solve_lp_batch(c, *args):
            solves.append(len(c))
            return real_solve(c, *args)

        engaged_attempts = []
        monkeypatch.setattr(wrench, "solve_lp_batch", solve_lp_batch)
        batched = run_campaign(DEFAULT_FIELD_STATS, model, mode, 30, seed=29, retries=3)
        reference = [reference_trial(DEFAULT_FIELD_STATS, model, mode, 29, i, 0.0, 3,
                                     engaged_attempts) for i in range(30)]
        assert batched.log == tuple(reference)
        assert sum(solves) == len(set(engaged_attempts)) > 0
        # retries do land on cup sets the trial has already solved
        assert len(engaged_attempts) > len(set(engaged_attempts))

    @pytest.mark.parametrize("occlusion", [0.0, 0.3])
    @pytest.mark.parametrize("retries", [0, 1, 3])
    @pytest.mark.parametrize("mode", list(ActuationMode))
    def test_matches_one_trial_at_a_time(self, model, mode, retries, occlusion):
        batched = run_campaign(DEFAULT_FIELD_STATS, model, mode, 80, seed=37,
                               occlusion_fail_prob=occlusion, retries=retries)
        reference = tuple(reference_trial(DEFAULT_FIELD_STATS, model, mode, 37, i, occlusion,
                                          retries) for i in range(80))
        assert batched.log == reference

    def test_block_size_does_not_change_log(self, model, monkeypatch):
        whole = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 50, seed=41,
                             occlusion_fail_prob=0.2, retries=2)
        monkeypatch.setattr(picksim, "CAMPAIGN_BLOCK", 7)
        blocks = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 50, seed=41,
                              occlusion_fail_prob=0.2, retries=2)
        assert blocks.log == whole.log

    def test_retry_offsets_drawn_only_when_used(self):
        # a trial waiting for its first strength has made its first attempt and
        # drawn no retry offset, so memory does not grow with ``retries``
        rng = np.random.default_rng(np.random.SeedSequence([43, 0]))
        rng.random(7)
        state = rng.bit_generator.state
        # net, tangential, diameter, offset, stiffness, azimuth, occluded
        draws = (20.0, 5.0, 76.0, 4.0, 400.0, 0.0, False)
        tracemalloc.start()
        try:
            trial = picksim._run_trial(DEFAULT_FIELD_STATS, ActuationMode.DUAL, 10**6, 0,
                                       rng, draws, ((0, 1, 2), True))
            next(trial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kwargs,message", [
        ({"seed": -1}, "seed must be >= 0"),
        ({"occlusion_fail_prob": math.nan}, "occlusion_fail_prob must be in"),
        ({"occlusion_fail_prob": -0.5}, "occlusion_fail_prob must be in"),
        ({"occlusion_fail_prob": 1.5}, "occlusion_fail_prob must be in"),
        ({"occlusion_fail_prob": math.inf}, "occlusion_fail_prob must be in"),
        ({"occlusion_fail_prob": -math.inf}, "occlusion_fail_prob must be in"),
        # True once occluded every trial
        ({"occlusion_fail_prob": True}, "occlusion_fail_prob must be in"),
        # a float count escaped as a TypeError, and True counted as 1
        ({"trials": 2.5}, "trials must be an int, got 2.5"),
        ({"trials": True}, "trials must be an int, got True"),
        ({"trials": "3"}, "trials must be an int, got '3'"),
        ({"retries": 1.5}, "retries must be an int, got 1.5"),
        ({"seed": 1.5}, "seed must be an int, got 1.5"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"threads": 1.5}, "threads must be an int, got 1.5"),
    ])
    def test_bad_seed_and_occlusion_rejected(self, model, monkeypatch, kwargs, message):
        # checked before any trial runs
        started = []
        monkeypatch.setattr(picksim, "_run_trial", lambda *a: started.append(a))
        with pytest.raises(ValueError, match=message):
            run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL,
                         **{"trials": 3, "seed": 0, **kwargs})
        assert started == []

    def test_numpy_int_inputs_run_as_ints(self, model):
        def campaign(cast):
            return run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.SUCTION, cast(20),
                                seed=cast(8), retries=cast(1), threads=cast(1))

        assert campaign(np.int64) == campaign(int)
        assert campaign(np.int32).to_json() == campaign(int).to_json()

    def test_occlusion_probability_bounds_accepted(self, model):
        never = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.FINGERS, 20, seed=4,
                             occlusion_fail_prob=0.0)
        always = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.FINGERS, 20, seed=4,
                              occlusion_fail_prob=1.0)
        assert never.breakdown[PickOutcome.PICKED] > 0
        assert always.breakdown[PickOutcome.NO_ENGAGE] == 20

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

    @pytest.mark.parametrize("kwargs,message", [
        ({"trials": 5, "retries": 2}, None),
        ({"trials": 6, "retries": 0}, "trials must be <= 5"),
        ({"trials": 1, "retries": 3}, "retries must be <= 2"),
    ])
    def test_trial_and_retry_caps(self, model, monkeypatch, kwargs, message):
        # the caps are checked before any trial runs
        monkeypatch.setattr(picksim, "MAX_TRIALS", 5)
        monkeypatch.setattr(picksim, "MAX_RETRIES", 2)
        if message is None:
            assert run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, seed=0,
                                **kwargs).trials == 5
            return
        started = []
        monkeypatch.setattr(picksim, "_run_trial", lambda *a: started.append(a))
        with pytest.raises(ValueError, match=message):
            run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, seed=0, **kwargs)
        assert started == []


class TestTrialStats:
    def test_json_round_trip(self):
        clone = TrialStats.from_json(DEFAULT_FIELD_STATS.to_json())
        assert clone == DEFAULT_FIELD_STATS

    @pytest.mark.parametrize("edit,message", [
        (lambda d: {}, "field 'fruit_diameter' is missing"),
        (lambda d: [1, 2], "must be an object"),
        (lambda d: {**d, "net_fdf": [1, 2, 3]}, "bad TrialStats field 'net_fdf'"),
        (lambda d: {**d, "gripper_offset": [math.nan] * 5},
         "field 'gripper_offset': q_min must be finite"),
        (lambda d: {**d, "fruit_weight": [10 ** 400] * 5}, "field 'fruit_weight'"),
        # float() took true and false as 1 and 0, so booleans parsed as quantiles
        (lambda d: {**d, "net_fdf": [False, True, True, True, True]},
         "field 'net_fdf': q_min must be a number, got False"),
        (lambda d: {**d, "net_fdf": [7, 11, 15, 28, "38"]},
         "field 'net_fdf': q_max must be a number, got '38'"),
        (lambda d: {**d, "net_fdf": [7, 11, 15, 28, 38, 40]},
         "field 'net_fdf': must be a list of five numbers"),
        (lambda d: {**d, "net_fdf": "71528"},
         "field 'net_fdf': must be a list of five numbers, got '71528'"),
    ])
    def test_bad_json_names_the_field(self, edit, message):
        doc = edit(json.loads(DEFAULT_FIELD_STATS.to_json()))
        with pytest.raises(ParseError, match=message):
            TrialStats.from_json(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            TrialStats.from_json("{")

    @pytest.mark.parametrize("field", ["fruit_diameter", "fruit_height", "fruit_weight",
                                       "net_fdf", "tangential_fdf", "branch_stiffness"])
    def test_negative_quantile_names_the_field(self, field):
        doc = {**json.loads(DEFAULT_FIELD_STATS.to_json()), field: [-40, -30, -20, -10, -5]}
        with pytest.raises(ParseError, match=f"TrialStats field '{field}' must be >= 0, got -40"):
            TrialStats.from_json(json.dumps(doc))

    def test_normal_fdf_is_signed(self):
        # the field data's own normal component dips below zero
        assert DEFAULT_FIELD_STATS.normal_fdf.q_min < 0.0
        doc = {**json.loads(DEFAULT_FIELD_STATS.to_json()), "normal_fdf": [-40, -30, -20, -10, -5]}
        assert TrialStats.from_json(json.dumps(doc)).normal_fdf.q_min == -40


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

    def test_duplicate_column(self, tmp_path):
        from tandemgrip.config import data_text
        from tandemgrip.errors import ParseError
        from tandemgrip.picksim import summarize_csv
        header, rest = data_text("field_log_sample.csv").split("\n", 1)
        p = tmp_path / "log.csv"
        p.write_text(header.replace("fruit_height_mm", "net_fdf_N") + "\n" + rest)
        with pytest.raises(ParseError, match="duplicate column name 'net_fdf_N'"):
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
