"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single ACCEPTANCE line so a plain `pytest -s
tests/test_acceptance.py` doubles as the release checklist.
"""

import math
import time

import numpy as np
import pytest

from tandemgrip.config import shipped_calibration
from tandemgrip.campath import Region, build_default_tracks, solve_finger_pose, validate_path
from tandemgrip.leadscrew import (
    DEFAULT_SCREW,
    ScrewParams,
    back_drive_torque,
    derive,
    thrust_for_torque,
    torque_for_thrust,
)
from tandemgrip.linkage import (
    DEFAULT_LINKAGE,
    DEFAULT_TRAVEL,
    moment_balance_check,
    solve_geometry,
    sweep_transmission,
    transmission_ratio,
)
from tandemgrip.picksim import DEFAULT_FIELD_STATS, run_campaign
from tandemgrip.quantiles import QuantileModel, summarize
from tandemgrip.wrench import (
    ActuationMode,
    ContactSet,
    GraspScenario,
    PullType,
    build_contacts,
    predict_strength,
    pull_direction_for,
    solve_pull,
    verify_witness,
)

from test_linkage import random_realizable_linkage
from test_wrench import enumeration_oracle, pad

# 50-digit mpmath evaluation of the transmission equations, computed
# independently before the implementation
ORACLE_RATIO_59 = 0.926266556692993158


def ok(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


def test_criterion_1_transmission_reproduction():
    """Torque peak 0.35 +- 0.02 N*m at the low end; ratio strictly increasing;
    ratio(59) within 0.15 of 1:1 and within 1e-6 of the scripted oracle; < 1 s."""
    t0 = time.perf_counter()
    rows = sweep_transmission(DEFAULT_LINKAGE, DEFAULT_TRAVEL, 0.1, 30.0, DEFAULT_SCREW)
    assert all(r.feasible for r in rows)
    peak = max(rows, key=lambda r: r.t_motor)
    assert peak.x == DEFAULT_TRAVEL.x_min
    assert abs(peak.t_motor - 0.35) <= 0.02
    ratios = [r.ratio for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    r59 = transmission_ratio(DEFAULT_LINKAGE, 59.0)
    assert abs(r59 - 1.0) <= 0.15
    assert abs(r59 - ORACLE_RATIO_59) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok("1 transmission", f"(peak {peak.t_motor:.4f} N*m @ x={peak.x}, "
                         f"ratio(59)={r59:.4f}, {elapsed * 1000:.0f} ms)")


def test_criterion_2_leadscrew_identities():
    """Frictionless energy identity and thrust/torque round trip to 1e-12;
    back-drive sign matches the analytic condition on every tested screw."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        screw = ScrewParams(
            pitch=rng.uniform(0.5, 6.0), n_starts=int(rng.integers(1, 7)),
            thread_angle=rng.uniform(0.0, 0.6), d_outer=rng.uniform(4.0, 30.0),
            mu=rng.uniform(0.0, 0.35),
        )
        f = rng.uniform(0.01, 1000.0)
        frictionless = ScrewParams(screw.pitch, screw.n_starts, screw.thread_angle,
                                   screw.d_outer, 0.0)
        t0 = torque_for_thrust(frictionless, f)
        lead_m = derive(frictionless).lead / 1000.0
        assert abs(t0 * 2.0 * math.pi - f * lead_m) <= 1e-12 * f * lead_m
        t = torque_for_thrust(screw, f)
        assert abs(thrust_for_torque(screw, t) - f) <= 1e-12 * f
        d = derive(screw)
        sec = 1.0 / math.cos(screw.thread_angle)
        analytic = screw.mu * sec < d.lead / (math.pi * d.d_mean)
        assert (back_drive_torque(screw, f) < 0.0) == analytic
    ok("2 lead-screw identities", "(100 random screws)")


def test_criterion_3_statics_cross_check():
    """Closed form vs vector moment balance: residual < 1e-9 over 100 random
    realizable linkages x 20 travel points."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        params, xs = random_realizable_linkage(rng)
        f = float(rng.uniform(0.0, 300.0))
        for x in xs[:20]:
            worst = max(worst, moment_balance_check(params, x, f))
    assert worst < 1e-9
    ok("3 statics cross-check", f"(worst residual {worst:.2e})")


def test_criterion_4_bruising_curve():
    """Pad force anchored at 18 N @ 58 mm: monotone increasing on [52, 58] mm
    and below the 30 N bruise threshold everywhere on the clamp region."""
    f_nut = 18.0 / solve_geometry(DEFAULT_LINKAGE, 58.0).ratio
    xs = np.arange(50.0, 59.0 + 1e-9, 0.1)
    forces = {round(float(x), 1): solve_geometry(DEFAULT_LINKAGE, float(x)).ratio * f_nut
              for x in xs}
    window = [forces[round(x, 1)] for x in np.arange(52.0, 58.0 + 1e-9, 0.1)]
    assert all(b > a for a, b in zip(window, window[1:]))
    assert all(v <= 30.0 for v in forces.values())
    assert forces[58.0] == pytest.approx(18.0, abs=1e-9)
    ok("4 bruising curve", f"(max {max(forces.values()):.2f} N <= 30 N)")


def test_criterion_5_lp_soundness():
    """Witness satisfies all constraints to 1e-6 on every query; analytic
    planar cases to 1e-6; enumeration oracle within 2% on 100 random
    instances; whole property suite < 10 s."""
    t0 = time.perf_counter()
    model = shipped_calibration()
    # witnesses across scenario sweep
    for mode in ActuationMode:
        for offset in (0.0, 10.0, 20.0):
            for angle in (0.0, 30.0):
                sc = GraspScenario(37.5, fruit_offset=offset, pull_angle=angle, mode=mode)
                cs = build_contacts(sc, model)
                sol = solve_pull(cs, pull_direction_for(sc))
                assert verify_witness(cs, sol) == []
    # analytic planar cases
    mu, cap = 0.6, 9.0
    cs = ContactSet(37.5, (pad([37.5, 0, 0], cap, mu, 8), pad([-37.5, 0, 0], cap, mu, 8)))
    assert solve_pull(cs, [0, 0, 1]).alpha == pytest.approx(
        2 * mu * cap, rel=1e-6
    )
    cs1 = ContactSet(37.5, (pad([0, 0, 37.5], 7.0, 0.0),))
    assert solve_pull(cs1, [0, 0, 1]).alpha == pytest.approx(7.0, abs=1e-6)
    # enumeration oracle
    rng = np.random.default_rng(99)
    for _ in range(100):
        contacts = []
        for _ in range(int(rng.integers(2, 4))):
            v = rng.normal(size=3)
            v = 37.5 * v / np.linalg.norm(v)
            contacts.append(pad(v, cap=float(rng.uniform(2, 20)),
                                mu=float(rng.uniform(0.2, 1.0)), sides=4))
        cset = ContactSet(37.5, tuple(contacts))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        lp = solve_pull(cset, d).alpha
        oracle = enumeration_oracle(cset, d)
        assert lp == pytest.approx(oracle, rel=0.02, abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok("5 LP soundness", f"({elapsed:.1f} s)")


def test_criterion_6_strength_reproduction(fresh_calibration):
    """After calibration on the shipped dataset: mode ordering, offset
    monotonicity, dual 0/45 deg and suction axial/rotational bands, and
    dual strength above the 16 N detachment proxy at every offset."""
    params = fresh_calibration.params
    shipped = shipped_calibration()
    for got, want in zip(
        (params.pad_force, params.mu_pad, params.suction_axial, params.shear_fraction),
        (shipped.pad_force, shipped.mu_pad, shipped.suction_axial, shipped.shear_fraction),
    ):
        assert got == pytest.approx(want, rel=1e-6)

    def strength(mode, offset=0.0, angle=0.0, pull=PullType.AXIAL):
        return predict_strength(
            GraspScenario(37.5, fruit_offset=offset, pull_angle=angle,
                          pull_type=pull, mode=mode), params
        )

    # (a) dual >= fingers >= suction for every tested angle and the
    # rotational case; dual >= both singles at every offset
    for angle in (0.0, 15.0, 30.0, 45.0):
        d, f, s = (strength(m, angle=angle) for m in
                   (ActuationMode.DUAL, ActuationMode.FINGERS, ActuationMode.SUCTION))
        assert d >= f >= s
    d, f, s = (strength(m, angle=90.0, pull=PullType.ROTATIONAL) for m in
               (ActuationMode.DUAL, ActuationMode.FINGERS, ActuationMode.SUCTION))
    assert d >= f >= s
    for offset in (0.0, 5.0, 10.0, 15.0, 20.0):
        dual = strength(ActuationMode.DUAL, offset=offset)
        assert dual >= strength(ActuationMode.FINGERS, offset=offset)
        assert dual >= strength(ActuationMode.SUCTION, offset=offset)
    # (b) fingers-only strictly decreasing in offset
    fo = [strength(ActuationMode.FINGERS, offset=o) for o in (0, 5, 10, 15, 20)]
    assert all(a > b for a, b in zip(fo, fo[1:]))
    # (c) dual axial bands
    d0 = strength(ActuationMode.DUAL)
    d45 = strength(ActuationMode.DUAL, angle=45.0)
    assert abs(d0 - 34.3) <= 0.2 * 34.3
    assert abs(d45 - 39.1) <= 0.2 * 39.1
    # (d) suction bands
    sa = strength(ActuationMode.SUCTION)
    sr = strength(ActuationMode.SUCTION, angle=90.0, pull=PullType.ROTATIONAL)
    assert abs(sa - 12.0) <= 0.2 * 12.0
    assert abs(sr - 5.25) <= 0.2 * 5.25
    # (e) dual above the detachment proxy at every offset
    do = [strength(ActuationMode.DUAL, offset=o) for o in (0, 5, 10, 15, 20)]
    assert all(v > 16.0 for v in do)
    ok("6 strength reproduction",
       f"(d0={d0:.1f}, d45={d45:.1f}, sa={sa:.1f}, sr={sr:.2f})")


def test_criterion_7_campaign_reproduction():
    """1000-trial campaigns: suction-only success < 20%, dual >= 85%;
    bit-identical across re-runs and across 1/4/8 threads."""
    model = shipped_calibration()
    suction = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.SUCTION,
                           1000, seed=0)
    dual = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 1000, seed=0)
    assert suction.success_rate < 0.20
    assert dual.success_rate >= 0.85
    rerun = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 1000, seed=0)
    assert rerun.log == dual.log and rerun.success_rate == dual.success_rate
    for threads in (4, 8):
        rt = run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.DUAL, 1000,
                          seed=0, threads=threads)
        assert rt.log == dual.log
    ok("7 campaign", f"(suction {suction.success_rate:.1%}, dual {dual.success_rate:.1%})")


def test_criterion_8_cam_path():
    """Default tracks for a 75 mm fruit: zero interference over 500 samples,
    one region transition, pin separation to 1e-9 mm; validation < 1 s."""
    spec, _ = build_default_tracks(37.5, 3.0)
    t0 = time.perf_counter()
    report = validate_path(spec, 500)
    elapsed = time.perf_counter() - t0
    assert not report.interference
    poses = [solve_finger_pose(spec, float(u)) for u in np.linspace(0, 1, 500)]
    regions = [p.region for p in poses]
    k = regions.index(Region.CLAMPING)
    assert all(r is Region.SWEEPING for r in regions[:k])
    assert all(r is Region.CLAMPING for r in regions[k:])
    worst = max(abs(np.linalg.norm(p.inner_pin - p.outer_pin) - spec.pin_separation)
                for p in poses)
    assert worst < 1e-9
    assert elapsed < 1.0
    ok("8 cam path", f"(clearance {report.min_clearance:.2f} mm, "
                     f"pin err {worst:.1e}, {elapsed * 1000:.0f} ms)")


def test_criterion_9_stats_round_trip():
    """Net-detachment five-number summary reproduced exactly; 100k-sample
    round trip recovers the source quantiles within 2%."""
    q = summarize([7, 11, 15, 28, 38])
    assert q.as_tuple() == (7.0, 11.0, 15.0, 28.0, 38.0)
    model = QuantileModel(7, 11, 15, 28, 38)
    rng = np.random.default_rng(42)
    back = summarize(model.sample(rng.random(100_000)))
    for a, b in zip(back.as_tuple(), model.as_tuple()):
        assert a == pytest.approx(b, rel=0.02)
    ok("9 stats round-trip", f"(recovered {tuple(round(v, 2) for v in back.as_tuple())})")
