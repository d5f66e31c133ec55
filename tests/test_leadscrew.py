"""Lead-screw transmission identities.

Frozen values from the 50-digit mpmath oracle for the stock Tr8x8 screw.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tandemgrip.errors import DenominatorNonpositive
from tandemgrip.leadscrew import (
    DEFAULT_SCREW,
    ScrewParams,
    back_drive_torque,
    derive,
    is_self_locking,
    thrust_for_torque,
    torque_for_thrust,
)

ORACLE_TORQUE_161_7 = 0.34902623229153694
ORACLE_THRUST_0_4 = 185.31558380395220
ORACLE_BACKDRIVE_100 = -0.051175109884525020


def screws(draw_mu=True):
    return st.builds(
        ScrewParams,
        pitch=st.floats(min_value=0.5, max_value=6.0),
        n_starts=st.integers(min_value=1, max_value=6),
        thread_angle=st.floats(min_value=0.0, max_value=0.6),
        d_outer=st.floats(min_value=4.0, max_value=30.0),
        mu=st.floats(min_value=0.0, max_value=0.35) if draw_mu else st.just(0.0),
    )


class TestDerive:
    def test_stock_screw(self):
        d = derive(DEFAULT_SCREW)
        assert d.lead == 8.0
        assert d.d_mean == 7.0

    def test_single_start(self):
        d = derive(ScrewParams(pitch=1.0, n_starts=1, thread_angle=0.2, d_outer=6.0, mu=0.1))
        assert d.lead == 1.0
        assert d.d_mean == 5.5


class TestTorqueForThrust:
    def test_against_oracle(self):
        assert torque_for_thrust(DEFAULT_SCREW, 161.7) == pytest.approx(
            ORACLE_TORQUE_161_7, rel=1e-12
        )

    def test_zero_thrust(self):
        assert torque_for_thrust(DEFAULT_SCREW, 0.0) == 0.0

    @given(screw=screws(draw_mu=False), f=st.floats(min_value=0.1, max_value=500.0))
    def test_frictionless_virtual_work(self, screw, f):
        # with no friction the screw is an ideal wedge: T * 2*pi = F * lead
        t = torque_for_thrust(screw, f)
        lead_m = derive(screw).lead / 1000.0
        assert t * 2.0 * math.pi == pytest.approx(f * lead_m, rel=1e-12)

    @given(screw=screws(), f=st.floats(min_value=0.0, max_value=500.0))
    def test_monotone_in_thrust(self, screw, f):
        assert torque_for_thrust(screw, f + 1.0) > torque_for_thrust(screw, f)

    def test_monotone_in_friction(self):
        base = DEFAULT_SCREW
        lo = ScrewParams(base.pitch, base.n_starts, base.thread_angle, base.d_outer, 0.1)
        hi = ScrewParams(base.pitch, base.n_starts, base.thread_angle, base.d_outer, 0.3)
        assert torque_for_thrust(hi, 100.0) > torque_for_thrust(lo, 100.0)

    def test_pathological_screw_rejected(self):
        bad = ScrewParams(pitch=2.0, n_starts=20, thread_angle=math.radians(14.5),
                          d_outer=8.0, mu=0.6)
        with pytest.raises(DenominatorNonpositive):
            torque_for_thrust(bad, 10.0)


class TestThrustForTorque:
    def test_motor_capacity(self):
        assert thrust_for_torque(DEFAULT_SCREW, 0.4) == pytest.approx(
            ORACLE_THRUST_0_4, rel=1e-12
        )

    def test_zero(self):
        assert thrust_for_torque(DEFAULT_SCREW, 0.0) == 0.0

    @given(screw=screws(), f=st.floats(min_value=0.01, max_value=1000.0))
    def test_round_trip(self, screw, f):
        t = torque_for_thrust(screw, f)
        assert thrust_for_torque(screw, t) == pytest.approx(f, rel=1e-12)

    def test_round_trip_100_random(self):
        import numpy as np
        rng = np.random.default_rng(11)
        for _ in range(100):
            screw = ScrewParams(
                pitch=rng.uniform(0.5, 6.0), n_starts=int(rng.integers(1, 7)),
                thread_angle=rng.uniform(0.0, 0.6), d_outer=rng.uniform(4.0, 30.0),
                mu=rng.uniform(0.0, 0.35),
            )
            f = rng.uniform(0.01, 1000.0)
            t = torque_for_thrust(screw, f)
            assert abs(thrust_for_torque(screw, t) - f) <= 1e-12 * f


class TestBackDrive:
    def test_stock_screw_back_drives(self):
        t = back_drive_torque(DEFAULT_SCREW, 100.0)
        assert t == pytest.approx(ORACLE_BACKDRIVE_100, rel=1e-12)
        assert t < 0.0
        assert not is_self_locking(DEFAULT_SCREW)

    def test_high_friction_self_locks(self):
        screw = ScrewParams(pitch=2.0, n_starts=1, thread_angle=math.radians(14.5),
                            d_outer=8.0, mu=0.2)
        # mu*sec(phi) = 0.207 > lead/(pi*d_m) = 2/(pi*7) = 0.0909
        assert back_drive_torque(screw, 50.0) > 0.0
        assert is_self_locking(screw)

    def test_zero_load(self):
        assert back_drive_torque(DEFAULT_SCREW, 0.0) == 0.0

    @given(screw=screws())
    def test_sign_rule(self, screw):
        d = derive(screw)
        sec = 1.0 / math.cos(screw.thread_angle)
        analytic_back_drives = screw.mu * sec < d.lead / (math.pi * d.d_mean)
        assert (back_drive_torque(screw, 10.0) < 0.0) == analytic_back_drives


class TestValidation:
    def test_bad_pitch(self):
        with pytest.raises(ValueError):
            ScrewParams(pitch=0.0, n_starts=1, thread_angle=0.1, d_outer=8.0, mu=0.2)

    def test_d_outer_vs_pitch(self):
        with pytest.raises(ValueError):
            ScrewParams(pitch=10.0, n_starts=1, thread_angle=0.1, d_outer=4.0, mu=0.2)

    @pytest.mark.parametrize("n_starts", [2.5, True, "4"])
    def test_n_starts_must_be_an_int(self, n_starts):
        # 2.5 and True gave leads of 2.5 and 1 pitches; "4" escaped as a TypeError
        with pytest.raises(ValueError, match=f"n_starts must be an int >= 1, got {n_starts!r}"):
            ScrewParams(pitch=2.0, n_starts=n_starts, thread_angle=0.1, d_outer=8.0, mu=0.2)

    def test_numpy_int_n_starts(self):
        screw = ScrewParams(pitch=2.0, n_starts=np.int64(4), thread_angle=0.1, d_outer=8.0, mu=0.2)
        assert derive(screw).lead == 8.0
