"""Cam track synthesis and finger pose solving."""

import dataclasses
import math

import numpy as np
import pytest

from tandemgrip import campath
from tandemgrip.campath import (
    MAX_SAMPLES,
    CamTrackSpec,
    CubicBezier,
    Region,
    build_default_tracks,
    poses_to_csv,
    solve_finger_pose,
    validate_path,
    POSES_CSV_HEADER,
)
from tandemgrip.errors import PoseUnsolvable, SynthesisFailed


@pytest.fixture(scope="module")
def spec75():
    spec, _ = build_default_tracks(37.5, 3.0)
    return spec


@pytest.fixture(scope="module")
def poses75(spec75):
    return [(float(u), solve_finger_pose(spec75, float(u)))
            for u in np.linspace(0.0, 1.0, 500)]


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

    def test_other_fruit_sizes(self):
        for radius in (30.0, 42.5):
            spec, _ = build_default_tracks(radius, 2.0)
            report = validate_path(spec, 200)
            assert report.min_clearance >= 2.0

    def test_returns_the_report_of_its_pass(self):
        spec, report = build_default_tracks(37.5, 3.0, samples=50)
        again = validate_path(spec, 50)
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

    def test_sample_bound_checked_before_solving(self, spec75, monkeypatch):
        calls = []

        def counting(spec, u):
            calls.append(u)
            return solve_finger_pose(spec, u)
        monkeypatch.setattr(campath, "solve_finger_pose", counting)
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            validate_path(spec75, MAX_SAMPLES + 1)
        assert calls == []
        validate_path(spec75, 3)
        assert len(calls) == 3

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
