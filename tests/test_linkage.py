"""Crank-slider linkage statics.

Frozen expected values were computed with an independent 50-digit mpmath
script evaluating the model equations directly, before this implementation
existed (see test docstrings for the frozen numbers).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tandemgrip.errors import GeometryInfeasible, NegativeY
from tandemgrip.leadscrew import DEFAULT_SCREW, ScrewParams
from tandemgrip.linkage import (
    DEFAULT_LINKAGE,
    DEFAULT_TRAVEL,
    MAX_GRID_POINTS,
    LinkageParams,
    SWEEP_CSV_HEADER,
    TravelRange,
    force_out,
    joint_coordinates,
    moment_balance_check,
    solve_geometry,
    sweep_rows_to_csv,
    sweep_transmission,
    travel_grid,
    transmission_ratio,
)

# mpmath oracle, 50 digits, default geometry
ORACLE_RATIO_50 = 0.18571849394469946
ORACLE_RATIO_59 = 0.926266556692993158
ORACLE_GAMMA_59_DEG = 96.339798834923400
ORACLE_ALPHA_59_DEG = 26.565051177077989
ORACLE_THETA_59_DEG = 40.405879314539381
ORACLE_FBAR_59_10N = 25.562496062743094


def feasible_xs(params: LinkageParams, n: int) -> list[float]:
    """Evenly spaced feasible travel points found by scanning."""
    hi = params.p_y - params.l_n - 0.01
    xs = []
    for x in np.linspace(0.01, hi, 500):
        try:
            solve_geometry(params, float(x))
            xs.append(float(x))
        except GeometryInfeasible:
            pass
    if len(xs) > n:
        idx = np.linspace(0, len(xs) - 1, n).astype(int)
        xs = [xs[i] for i in idx]
    return xs


def random_realizable_linkage(rng: np.random.Generator) -> tuple[LinkageParams, list[float]]:
    while True:
        params = LinkageParams(
            p_x=rng.uniform(4, 25), l_b=rng.uniform(8, 40), l_k=rng.uniform(8, 40),
            l_f=rng.uniform(20, 80), p_y=rng.uniform(60, 140), l_n=rng.uniform(2, 15),
        )
        xs = feasible_xs(params, 20)
        if len(xs) >= 20:
            return params, xs


class TestSolveGeometry:
    def test_y_is_direct_arithmetic(self):
        st = solve_geometry(DEFAULT_LINKAGE, 59.0)
        assert st.y == 90.0 - 7.0 - 59.0 == 24.0

    def test_angles_against_oracle(self):
        st = solve_geometry(DEFAULT_LINKAGE, 59.0)
        assert math.degrees(st.gamma) == pytest.approx(ORACLE_GAMMA_59_DEG, abs=1e-9)
        assert math.degrees(st.alpha) == pytest.approx(ORACLE_ALPHA_59_DEG, abs=1e-9)
        assert math.degrees(st.theta) == pytest.approx(ORACLE_THETA_59_DEG, abs=1e-9)

    def test_negative_y_raises(self):
        with pytest.raises(NegativeY):
            solve_geometry(DEFAULT_LINKAGE, 83.0)

    def test_triangle_cannot_close_below_49(self):
        with pytest.raises(GeometryInfeasible):
            solve_geometry(DEFAULT_LINKAGE, 49.0)

    def test_angle_ranges(self):
        for x in np.linspace(50.0, 59.0, 19):
            st = solve_geometry(DEFAULT_LINKAGE, float(x))
            assert 0.0 < st.gamma < math.pi
            assert 0.0 < st.alpha < math.pi / 2
            assert 0.0 < st.theta < math.pi
            assert st.alpha + st.theta < math.pi / 2

    @given(
        x1=st.floats(min_value=50.0, max_value=59.0),
        x2=st.floats(min_value=50.0, max_value=59.0),
    )
    def test_travel_to_y_linearity(self, x1, x2):
        y1 = solve_geometry(DEFAULT_LINKAGE, x1).y
        y2 = solve_geometry(DEFAULT_LINKAGE, x2).y
        assert y1 - y2 == pytest.approx(x2 - x1, abs=1e-12)

    def test_all_outputs_finite(self):
        params, xs = random_realizable_linkage(np.random.default_rng(3))
        for x in xs:
            st = solve_geometry(params, x)
            for v in (st.y, st.gamma, st.alpha, st.theta, st.ratio):
                assert math.isfinite(v)


class TestTransmissionRatio:
    def test_ratio_at_50(self):
        assert transmission_ratio(DEFAULT_LINKAGE, 50.0) == pytest.approx(
            ORACLE_RATIO_50, abs=1e-12
        )

    def test_ratio_at_59_near_unity_claim(self):
        r = transmission_ratio(DEFAULT_LINKAGE, 59.0)
        assert r == pytest.approx(ORACLE_RATIO_59, abs=1e-12)
        # design claim: the stop at 59 mm reaches roughly a 1:1 force ratio
        assert abs(r - 1.0) <= 0.15

    def test_ratio_rises_with_travel(self):
        assert transmission_ratio(DEFAULT_LINKAGE, 59.0) > transmission_ratio(
            DEFAULT_LINKAGE, 50.0
        )

    def test_strictly_increasing_on_clamp_region(self):
        xs = np.linspace(50.0, 59.0, 91)
        ratios = [transmission_ratio(DEFAULT_LINKAGE, float(x)) for x in xs]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestForceOut:
    def test_f_out_for_design_thrust(self):
        # thrust sized for a 30 N pad force at the low end of the clamp region
        fs = force_out(DEFAULT_LINKAGE, 50.0, 161.7)
        assert fs.f_out == pytest.approx(30.0, abs=0.05)

    def test_zero_thrust(self):
        fs = force_out(DEFAULT_LINKAGE, 55.0, 0.0)
        assert fs.f_out == 0.0 and fs.f_bar == 0.0

    def test_bar_force_against_oracle(self):
        fs = force_out(DEFAULT_LINKAGE, 59.0, 10.0)
        assert fs.f_bar == pytest.approx(ORACLE_FBAR_59_10N, abs=1e-9)

    def test_bar_amplification(self):
        for x in np.linspace(50.0, 59.0, 10):
            fs = force_out(DEFAULT_LINKAGE, float(x), 20.0)
            assert fs.f_bar >= fs.f_nut

    def test_negative_thrust_rejected(self):
        with pytest.raises(ValueError):
            force_out(DEFAULT_LINKAGE, 55.0, -1.0)


class TestMomentBalance:
    def test_against_closed_form(self):
        assert moment_balance_check(DEFAULT_LINKAGE, 55.0, 50.0) < 1e-9

    def test_zero_force(self):
        assert moment_balance_check(DEFAULT_LINKAGE, 50.0, 0.0) == 0.0

    def test_elbow_reconstruction_lengths(self):
        joints = joint_coordinates(DEFAULT_LINKAGE, 55.0)
        nut, elbow, pivot = joints["nut"], joints["elbow"], joints["pivot"]
        assert math.dist(nut, elbow) == pytest.approx(DEFAULT_LINKAGE.l_b, abs=1e-9)
        assert math.dist(pivot, elbow) == pytest.approx(DEFAULT_LINKAGE.l_k, abs=1e-9)

    def test_random_realizable_property(self):
        rng = np.random.default_rng(20250809)
        for _ in range(100):
            params, xs = random_realizable_linkage(rng)
            x = xs[int(rng.integers(0, len(xs)))]
            assert moment_balance_check(params, x, float(rng.uniform(0, 200))) < 1e-9


class TestSweep:
    def test_row_count(self):
        rows = sweep_transmission(DEFAULT_LINKAGE, DEFAULT_TRAVEL, 0.1, 30.0, DEFAULT_SCREW)
        assert len(rows) == 91

    def test_max_torque_at_low_end(self):
        rows = sweep_transmission(DEFAULT_LINKAGE, DEFAULT_TRAVEL, 0.1, 30.0, DEFAULT_SCREW)
        peak = max(rows, key=lambda r: r.t_motor)
        assert peak.x == 50.0
        assert peak.t_motor == pytest.approx(0.35, abs=0.02)

    def test_ratio_column_strictly_increasing(self):
        rows = sweep_transmission(DEFAULT_LINKAGE, DEFAULT_TRAVEL, 0.1, 30.0, DEFAULT_SCREW)
        ratios = [r.ratio for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_infeasible_rows_marked_not_dropped(self):
        rows = sweep_transmission(
            DEFAULT_LINKAGE, TravelRange(48.0, 52.0), 0.5, 30.0, DEFAULT_SCREW
        )
        assert len(rows) == 9
        assert not rows[0].feasible and rows[-1].feasible

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan])
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(ValueError):
            travel_grid(DEFAULT_TRAVEL, step)
        with pytest.raises(ValueError):
            sweep_transmission(DEFAULT_LINKAGE, DEFAULT_TRAVEL, step, 30.0, DEFAULT_SCREW)

    def test_infinite_step_rejected(self):
        # x_min + 0 * inf would be NaN
        with pytest.raises(ValueError, match="step must be finite"):
            travel_grid(DEFAULT_TRAVEL, math.inf)

    @pytest.mark.parametrize("f_out,message", [
        (math.nan, "f_out_target must be finite"),
        (math.inf, "f_out_target must be finite"),
        (1e308, "overflows the motor torque"),
    ])
    def test_unusable_force_target_rejected(self, f_out, message):
        with pytest.raises(ValueError, match=message):
            sweep_transmission(DEFAULT_LINKAGE, DEFAULT_TRAVEL, 0.1, f_out, DEFAULT_SCREW)

    @pytest.mark.parametrize("step", [1e-12, 1e-320])
    def test_oversized_grid_rejected_at_the_call(self, step):
        # raises before any position is generated: the grid is lazy
        with pytest.raises(ValueError, match="grid points"):
            travel_grid(DEFAULT_TRAVEL, step)

    def test_grid_size_limit(self):
        span = DEFAULT_TRAVEL.x_max - DEFAULT_TRAVEL.x_min
        assert len(list(travel_grid(DEFAULT_TRAVEL, span / (MAX_GRID_POINTS - 1)))) \
            == MAX_GRID_POINTS
        with pytest.raises(ValueError):
            travel_grid(DEFAULT_TRAVEL, span / MAX_GRID_POINTS)

    def test_csv_header_and_stability(self):
        rows = sweep_transmission(DEFAULT_LINKAGE, DEFAULT_TRAVEL, 0.5, 30.0, DEFAULT_SCREW)
        text1 = sweep_rows_to_csv(rows)
        text2 = sweep_rows_to_csv(
            sweep_transmission(DEFAULT_LINKAGE, DEFAULT_TRAVEL, 0.5, 30.0, DEFAULT_SCREW)
        )
        assert text1.splitlines()[0] == SWEEP_CSV_HEADER
        assert text1 == text2


class TestParamValidation:
    def test_positive_lengths_required(self):
        with pytest.raises(ValueError):
            LinkageParams(p_x=0.0, l_b=18.5, l_k=17.5, l_f=48.0, p_y=90.0, l_n=7.0)

    def test_travel_range_order(self):
        with pytest.raises(ValueError):
            TravelRange(59.0, 50.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_rejected(self, value):
        lengths = dict(p_x=12.0, l_b=18.5, l_k=17.5, l_f=48.0, p_y=90.0, l_n=7.0)
        for name in lengths:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                LinkageParams(**{**lengths, name: value})
        with pytest.raises(ValueError, match="x_max must be finite"):
            TravelRange(50.0, value)
        with pytest.raises(ValueError, match="mu must be finite"):
            ScrewParams(pitch=2.0, n_starts=4, thread_angle=0.25, d_outer=8.0, mu=value)
