"""Cam track synthesis and finger pose solving."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from tandemgrip import campath
from tandemgrip.campath import (
    EPS,
    HARD_STOP_TOL_MM,
    MAX_SAMPLES,
    SNAP_TOL_MM,
    SYNTHESIS_SAMPLES,
    CamTrackSpec,
    CubicBezier,
    FingerPose,
    Region,
    build_default_tracks,
    poses_to_csv,
    solve_finger_pose,
    solve_finger_poses,
    validate_path,
    POSES_CSV_HEADER,
)
from tandemgrip.errors import PoseUnsolvable, SynthesisFailed
from test_wrench import ieee_dot, ieee_norm


def reference_eval(seg: CubicBezier, t: float) -> np.ndarray:
    """One Bezier point in Python floats: powers by ``**`` and each coordinate
    a ``sum`` of the four terms."""
    mt = 1.0 - t
    w = (mt**3, 3.0 * mt**2 * t, 3.0 * mt * t**2, t**3)
    pts = (seg.p0, seg.p1, seg.p2, seg.p3)
    return np.array([
        sum(w[i] * pts[i][0] for i in range(4)),
        sum(w[i] * pts[i][1] for i in range(4)),
    ])


@functools.lru_cache(maxsize=None)
def _reference_tables(spec: CamTrackSpec):
    """The outer polyline with its cumulative arc length, and the inner scan
    grid, one ``reference_eval`` per point."""
    ts = np.linspace(0.0, 1.0, campath.ARC_SAMPLES)
    pts = np.vstack([np.array([reference_eval(seg, t) for t in ts])[min(k, 1):]
                     for k, seg in enumerate(spec.outer_path)])
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    scan = np.linspace(0.0, spec.inner_hard_stop, campath.SCAN_SAMPLES)
    grid = np.array([reference_eval(spec.inner_path, float(t)) for t in scan])
    return pts, cum, scan, grid


def reference_solve_finger_pose(spec: CamTrackSpec, u: float) -> FingerPose:
    """One pose at a time: a scalar 64-step bisection with ``ieee_norm``
    (the oracle of ``solve_finger_poses``)."""
    pts, cum, ts, grid = _reference_tables(spec)
    target = u * cum[-1]
    i = int(np.clip(np.searchsorted(cum, target), 1, len(cum) - 1))
    seg_len = cum[i] - cum[i - 1]
    f = (target - cum[i - 1]) / seg_len if seg_len > 0.0 else 0.0
    outer = pts[i - 1] + f * (pts[i] - pts[i - 1])
    s = spec.pin_separation
    hard = reference_eval(spec.inner_path, spec.inner_hard_stop)

    def residual(t: float) -> float:
        return ieee_norm(reference_eval(spec.inner_path, t) - outer) - s

    fs = np.linalg.norm(grid - outer, axis=1) - s
    f_end = fs[-1]
    if fs.min() > EPS or f_end < -EPS:
        if abs(f_end) > SNAP_TOL_MM:
            raise PoseUnsolvable(u, f"min |inner - outer| - s = {fs.min():.4f} mm, "
                                    f"at the hard stop {f_end:.4f} mm")
        region, inner = Region.CLAMPING, hard
    else:
        k = int(np.max(np.nonzero(fs <= EPS)))
        if k == len(ts) - 1:
            region, inner = Region.CLAMPING, hard
        else:
            lo, hi = float(ts[k]), float(ts[k + 1])
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                if residual(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            inner = reference_eval(spec.inner_path, 0.5 * (lo + hi))
            if ieee_norm(inner - hard) <= HARD_STOP_TOL_MM:
                region, inner = Region.CLAMPING, hard
            else:
                region = Region.SWEEPING
    if region is Region.CLAMPING:
        outer = hard + s * (outer - hard) / ieee_norm(outer - hard)
    u_io = (outer - inner) / ieee_norm(outer - inner)
    tip = inner - spec.tip_extension * u_io
    tip_dir = (tip - inner) / spec.tip_extension
    return FingerPose(inner_pin=inner, outer_pin=outer, pad_tip=tip, region=region,
                      rotation=math.atan2(tip_dir[0], tip_dir[1]))


def assert_same_pose(got: FingerPose, want: FingerPose):
    assert got.region is want.region
    for name in ("inner_pin", "outer_pin", "pad_tip"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert type(got.rotation) is float
    assert got.rotation.hex() == want.rotation.hex()


@pytest.fixture(scope="module")
def spec75():
    spec, _ = build_default_tracks(37.5, 3.0)
    return spec


@pytest.fixture(scope="module")
def poses75(spec75):
    us = np.linspace(0.0, 1.0, 500)
    return list(zip(us.tolist(), solve_finger_poses(spec75, us)))


class TestSynthesis:
    def test_default_meets_clearance(self, spec75):
        report = validate_path(spec75, 500)
        assert report.min_clearance >= 3.0
        assert not report.interference

    def test_zero_clearance_valid(self):
        spec, _ = build_default_tracks(37.5, 0.0)
        report = validate_path(spec, 200)
        assert report.min_clearance >= 0.0

    def test_oversized_fruit_fails(self):
        with pytest.raises(SynthesisFailed) as err:
            build_default_tracks(500.0, 50.0)
        assert "envelope" in str(err.value)

    def test_huge_fruit_fails_before_any_track_is_built(self):
        # a 1e300 mm candidate would overflow (a RuntimeWarning, an error here)
        with pytest.raises(SynthesisFailed, match="envelope"):
            build_default_tracks(1e300, 3.0)

    @staticmethod
    def candidates(monkeypatch) -> list[float]:
        """The ``deepen`` of every candidate track the synthesis builds."""
        tried, build = [], campath._build_candidate
        monkeypatch.setattr(campath, "_build_candidate",
                            lambda radius, deepen: tried.append(deepen) or build(radius, deepen))
        return tried

    def test_deepens_the_rail_until_the_clearance_holds(self, monkeypatch):
        # the first candidate misses 5 mm; the second, deepened, keeps 5.46 mm
        tried = self.candidates(monkeypatch)
        _, report = build_default_tracks(37.5, 5.0)
        assert len(tried) == 2 and tried[0] == 0.0 < tried[1]
        assert 5.0 <= report.min_clearance < 5.5

    def test_unmet_clearance_fails_after_four_candidates(self, monkeypatch):
        tried = self.candidates(monkeypatch)
        with pytest.raises(SynthesisFailed,
                           match=r"sweep clearance \(min clearance 5\.81 mm < 10\.00 mm\)"):
            build_default_tracks(37.5, 10.0)
        assert len(tried) == 4 and tried == sorted(tried)

    def test_other_fruit_sizes(self):
        for radius in (30.0, 42.5):
            spec, _ = build_default_tracks(radius, 2.0)
            report = validate_path(spec, 200)
            assert report.min_clearance >= 2.0

    def test_returns_the_report_of_its_pass(self):
        spec, report = build_default_tracks(37.5, 3.0)
        again = validate_path(spec, SYNTHESIS_SAMPLES)
        assert report == again
        assert [u for u, _ in report.poses] == [u for u, _ in again.poses]
        assert report.poses[0][0] == 0.0
        assert report.poses[0][1].pad_tip[1] < spec.palm_plane_z

    def test_json_round_trip(self, spec75):
        clone = CamTrackSpec.from_json(spec75.to_json())
        assert clone == spec75


class TestPose:
    def test_start_retracted_sweeping(self, spec75):
        pose = solve_finger_pose(spec75, 0.0)
        assert pose.region is Region.SWEEPING
        assert pose.pad_tip[1] < spec75.palm_plane_z

    def test_final_pose_clamping_on_fruit(self, spec75):
        pose = solve_finger_pose(spec75, 1.0)
        assert pose.region is Region.CLAMPING
        center = np.array(spec75.fruit_center)
        dist = np.linalg.norm(pose.pad_tip - center) - spec75.fruit_radius
        assert abs(dist) < 1e-6
        lat = math.asin((center[1] - pose.pad_tip[1]) / spec75.fruit_radius)
        assert math.degrees(lat) <= spec75.contact_latitude_max_deg

    def test_rigid_pin_separation(self, spec75, poses75):
        worst = max(
            abs(np.linalg.norm(p.inner_pin - p.outer_pin) - spec75.pin_separation)
            for _, p in poses75
        )
        assert worst < 1e-9

    def test_single_region_transition(self, poses75):
        regions = [p.region for _, p in poses75]
        k = regions.index(Region.CLAMPING)
        assert all(r is Region.SWEEPING for r in regions[:k])
        assert all(r is Region.CLAMPING for r in regions[k:])

    def test_clamp_inner_pin_stationary_rotation_inward(self, spec75, poses75):
        clamp = [(u, p) for u, p in poses75 if p.region is Region.CLAMPING]
        stop = spec75.hard_stop_point()
        rotations = []
        for _, p in clamp:
            assert np.linalg.norm(p.inner_pin - stop) < 1e-12
            rotations.append(p.rotation)
        assert all(a >= b - 1e-12 for a, b in zip(rotations, rotations[1:]))

    def test_tip_radial_distance_unimodal(self, poses75):
        tips = [abs(float(p.pad_tip[0])) for _, p in poses75]
        peak = int(np.argmax(tips))
        assert all(tips[i] <= tips[i + 1] + 1e-9 for i in range(peak))
        assert all(tips[i] >= tips[i + 1] - 1e-9 for i in range(peak, len(tips) - 1))

    def test_u_out_of_range(self, spec75):
        with pytest.raises(ValueError):
            solve_finger_pose(spec75, 1.5)

    def test_pose_matches_dense_sampling_oracle(self, spec75):
        # brute-force the inner parameter at fine resolution and compare
        for u in (0.2, 0.45, 0.7):
            pose = solve_finger_pose(spec75, u)
            ts = np.linspace(0.0, 1.0, 200001)
            pts = np.array([spec75.inner_path.eval(t) for t in ts[:: 100]])
            # coarse localization then fine scan
            d = np.abs(np.linalg.norm(pts - pose.outer_pin, axis=1) - spec75.pin_separation)
            k = int(np.argmin(d))
            fine = np.linspace(max(ts[::100][k] - 0.01, 0), min(ts[::100][k] + 0.01, 1), 20001)
            pts_f = np.array([spec75.inner_path.eval(t) for t in fine])
            df = np.abs(np.linalg.norm(pts_f - pose.outer_pin, axis=1) - spec75.pin_separation)
            best = pts_f[int(np.argmin(df))]
            assert np.linalg.norm(best - pose.inner_pin) < 1e-3

    def test_unsolvable_when_pins_cannot_span(self, spec75):
        bad = dataclasses.replace(spec75, pin_separation=100.0)
        with pytest.raises(PoseUnsolvable):
            solve_finger_pose(bad, 0.5)


class TestValidateReport:
    def test_moved_fruit_interferes(self, spec75):
        moved = dataclasses.replace(
            spec75, fruit_center=(spec75.fruit_center[0] + 10.0, spec75.fruit_center[1])
        )
        report = validate_path(moved, 500)
        assert report.interference
        assert report.min_clearance < 0.0

    def test_interference_flag_consistent(self, spec75):
        report = validate_path(spec75, 300)
        assert report.interference == (report.min_clearance < 0.0)

    def test_two_sample_degenerate(self, spec75):
        report = validate_path(spec75, 2)
        assert math.isfinite(report.min_clearance)

    def test_sample_count_validation(self, spec75):
        with pytest.raises(ValueError):
            validate_path(spec75, 1)

    @pytest.mark.parametrize("samples", [2.5, True, "500"])
    def test_sample_count_must_be_an_int(self, spec75, samples):
        # 2.5 escaped from linspace as a TypeError, and "500" from the range check
        with pytest.raises(ValueError, match=f"samples must be an int >= 2, got {samples!r}"):
            validate_path(spec75, samples)

    def test_numpy_int_sample_count(self, spec75):
        assert validate_path(spec75, np.int64(5)) == validate_path(spec75, 5)

    def test_sample_bound_checked_before_solving(self, spec75, monkeypatch):
        calls = []

        def counting(spec, us):
            calls.append(list(us))
            return solve_finger_poses(spec, us)
        monkeypatch.setattr(campath, "solve_finger_poses", counting)
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            validate_path(spec75, MAX_SAMPLES + 1)
        assert calls == []
        validate_path(spec75, 3)
        assert calls == [[0.0, 0.5, 1.0]]

    def test_report_keeps_poses_out_of_eq_and_repr(self, spec75):
        a, b = validate_path(spec75, 5), validate_path(spec75, 5)
        assert len(a.poses) == 5
        assert a == b and a.poses is not b.poses
        assert "poses" not in repr(a)

    def test_poses_csv_matches_independent_solves(self, spec75):
        lines = [POSES_CSV_HEADER]
        for u in np.linspace(0.0, 1.0, 37):
            p = solve_finger_pose(spec75, float(u))
            values = [float(u), *p.inner_pin, *p.outer_pin, *p.pad_tip]
            lines.append(",".join(f"{v:.9g}" for v in values) + "," + p.region.value)
        assert poses_to_csv(validate_path(spec75, 37)) == "\n".join(lines) + "\n"

    def test_poses_csv(self, spec75):
        text = poses_to_csv(validate_path(spec75, 16))
        lines = text.strip().splitlines()
        assert lines[0] == POSES_CSV_HEADER
        assert len(lines) == 17
        assert lines[1].endswith("sweeping")
        assert lines[-1].endswith("clamping")


def _reference_report(spec: CamTrackSpec, poses) -> tuple[float, float, float]:
    """min clearance, max sweep radius and contact latitude, one pose at a time."""
    center = np.array(spec.fruit_center)
    min_clear, max_radius = math.inf, 0.0
    for _, pose in poses:
        if pose.region is Region.SWEEPING:
            a, ab = pose.inner_pin, pose.pad_tip - pose.inner_pin
            t = float(np.clip(ieee_dot(center - a, ab) / ieee_dot(ab, ab), 0.0, 1.0))
            clear = (ieee_norm(a + t * ab - center)
                     - spec.fruit_radius - spec.pad_halfwidth)
            min_clear = min(min_clear, clear)
            max_radius = max(max_radius, abs(float(pose.pad_tip[0])))
    sin_lat = float(np.clip((center[1] - poses[-1][1].pad_tip[1]) / spec.fruit_radius,
                            -1.0, 1.0))
    return (0.0 if min_clear is math.inf else min_clear), max_radius, math.asin(sin_lat)


def _spec(radius, clearance, **changes):
    spec, _ = build_default_tracks(radius, clearance)
    return dataclasses.replace(spec, **changes)


class TestBatchedPoses:
    """``solve_finger_poses`` against the one-pose-at-a-time oracle, bit for bit."""

    US = np.linspace(0.0, 1.0, 500)

    @pytest.mark.parametrize("radius,clearance,changes", [
        (30.0, 2.0, {}),
        (37.5, 3.0, {}),
        (45.0, 0.0, {}),
        (55.0, 5.0, {}),
        # a moved fruit: the same poses, a report with interference
        (37.5, 3.0, {"fruit_center": (10.0, 37.5)}),
        # a longer pin separation: about a fifth of the samples need the snap
        (37.5, 3.0, {"pin_separation": 18.02}),
    ])
    def test_poses_and_report_match_reference(self, radius, clearance, changes):
        spec = _spec(radius, clearance, **changes)
        want = [reference_solve_finger_pose(spec, u) for u in self.US.tolist()]
        report = validate_path(spec, len(self.US))
        assert [u for u, _ in report.poses] == self.US.tolist()
        for (_, got), ref in zip(report.poses, want):
            assert_same_pose(got, ref)
        want_report = _reference_report(spec, list(zip(self.US.tolist(), want)))
        got_report = (report.min_clearance, report.max_sweep_radius,
                      report.clamp_contact_latitude)
        assert [float(v).hex() for v in got_report] == [v.hex() for v in want_report]

    def test_snap_spec_reaches_the_snap(self):
        # the parametrised case above covers the branch only if it is taken
        spec = _spec(37.5, 3.0, pin_separation=18.02)
        _, _, _, grid = _reference_tables(spec)
        outer = campath._outer_points(spec, self.US)
        fs = np.linalg.norm(grid[None] - outer[:, None], axis=2) - spec.pin_separation
        off_rail = (fs.min(axis=1) > EPS) | (fs[:, -1] < -EPS)
        assert 50 < np.count_nonzero(off_rail) < 150

    def test_single_pose_is_the_batch_of_one(self, spec75, poses75):
        for u, pose in poses75[::50]:
            assert_same_pose(solve_finger_pose(spec75, u), pose)

    @pytest.mark.parametrize("pin_separation,first_u", [
        (100.0, (0.0, 0.0)),
        (17.99, (0.0, 0.0)),
        # sweeping samples solve, then clamp samples past the snap tolerance fail
        (18.06, (0.5, 1.0)),
    ])
    def test_unsolvable_raises_the_first_failing_sample(self, spec75, pin_separation, first_u):
        spec = dataclasses.replace(spec75, pin_separation=pin_separation)
        with pytest.raises(PoseUnsolvable) as want:
            for u in self.US.tolist():
                reference_solve_finger_pose(spec, u)
        with pytest.raises(PoseUnsolvable) as got:
            validate_path(spec, len(self.US))
        assert got.value.u == want.value.u
        assert first_u[0] <= got.value.u <= first_u[1]
        assert str(got.value) == str(want.value)

    def test_u_checked_for_every_sample(self, spec75):
        with pytest.raises(ValueError, match=r"u must be in \[0, 1\]"):
            solve_finger_poses(spec75, [0.0, 0.5, math.nan])

    def test_scan_memory_stays_linear_in_samples(self, spec75):
        # 20,000 samples against the 129-point scan grid would be a 41 MB
        # (samples x 129 x 2) array at once; scanned in blocks, the pass
        # peaked at 15.3 MB, 12.2 MB of which are the poses it returns
        validate_path(spec75, 2)
        tracemalloc.start()
        try:
            report = validate_path(spec75, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.poses) == 20_000
        assert peak < 24e6


class TestSpecValidation:
    # the scalar fields are covered through a config file in test_cli.py
    def test_non_finite_control_points_named(self, spec75):
        inner = CubicBezier((0, 0), (1, math.nan), (3, 2), (4, 0))
        with pytest.raises(ValueError, match=r"inner_path\.p1\[1\] must be finite"):
            dataclasses.replace(spec75, inner_path=inner)
        sweep, clamp = spec75.outer_path
        bad = dataclasses.replace(clamp, p2=(math.inf, clamp.p2[1]))
        with pytest.raises(ValueError, match=r"outer_path\[1\]\.p2\[0\] must be finite"):
            dataclasses.replace(spec75, outer_path=(sweep, bad))


class TestBezier:
    SEGMENTS = [
        CubicBezier((0, 0), (1, 2), (3, 2), (4, 0)),
        # all-(-0.0) x terms: ``sum`` from int 0 makes them +0.0
        CubicBezier((-0.0, 12.5), (-0.0, -0.0), (-0.0, -0.0), (-0.0, 3.0)),
        CubicBezier((16.875, -6.75), (21.25, -4.5), (32.5, -2.25), (37.5, 0.0)),
    ]

    @pytest.mark.parametrize("seg", SEGMENTS)
    def test_array_eval_is_the_scalar_eval(self, seg):
        rng = np.random.default_rng(7)
        ts = np.concatenate([[0.0, 1.0, -0.0], rng.random(2000)])
        got = seg.eval(ts)
        assert got.shape == (len(ts), 2)
        for t, row in zip(ts.tolist(), got):
            one = seg.eval(t)
            assert one.shape == (2,)
            assert one.tobytes() == row.tobytes() == reference_eval(seg, t).tobytes()

    def test_endpoints(self):
        seg = CubicBezier((0, 0), (1, 2), (3, 2), (4, 0))
        assert np.allclose(seg.eval(0.0), (0, 0))
        assert np.allclose(seg.eval(1.0), (4, 0))

    def test_validation(self):
        seg = CubicBezier((0, 0), (1, 2), (3, 2), (4, 0))
        with pytest.raises(ValueError):
            CamTrackSpec(
                outer_path=(seg,), inner_path=seg, pin_separation=-1.0,
                inner_hard_stop=1.0, fruit_radius=37.5, fruit_center=(0, 37.5),
                palm_plane_z=0.0, tip_extension=37.5,
            )
