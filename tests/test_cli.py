"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tandemgrip
from tandemgrip import campath, cli, errors, picksim
from tandemgrip.cli import main
from tandemgrip.config import data_text


def run(capsys, tmp_path, *argv):
    code = main(["--out", str(tmp_path), *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def cam_doc():
    spec, _ = campath.build_default_tracks(37.5, 3.0)
    return json.loads(spec.to_json())


def cam_config(tmp_path, cam_doc):
    """A config file that names ``cam_doc`` as its cam track file."""
    (tmp_path / "tracks.json").write_text(json.dumps(cam_doc))
    doc = json.loads(data_text("default_config.json"))
    doc["cam"] = "tracks.json"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestTransmission:
    def test_sweep_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, "transmission", "--range", "50:59",
                           "--step", "0.1", "--f-out", "30")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("x_mm,y_mm,gamma_deg")
        assert len(lines) == 92
        torques = [float(l.split(",")[-1]) for l in lines[1:]]
        assert max(torques) == pytest.approx(0.35, abs=0.02)
        assert (tmp_path / "transmission.csv").exists()

    def test_single_point(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, "transmission", "--range", "59")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        ratio = float(lines[1].split(",")[6])
        assert ratio == pytest.approx(0.926, abs=0.001)

    def test_empty_range_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, tmp_path, "transmission", "--range", "59:50")
        assert code == 2
        assert "empty" in err

    def test_svg_emitted(self, capsys, tmp_path):
        code = main(["--out", str(tmp_path), "--format", "svg",
                     "transmission", "--step", "0.5"])
        capsys.readouterr()
        assert code == 0
        svg = (tmp_path / "transmission.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("f_out", ["nan", "inf", "-inf"])
    def test_non_finite_f_out_usage_error(self, capsys, tmp_path, f_out):
        code, out, err = run(capsys, tmp_path, "transmission", f"--f-out={f_out}")
        assert code == 2
        assert out == ""
        assert "f_out_target must be finite" in err

    def test_overflowing_f_out_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, tmp_path, "transmission", "--f-out", "1e308")
        assert code == 2
        assert out == ""
        assert "overflows the motor torque" in err

    @pytest.mark.parametrize("argv,message", [
        (["--range", "50:59:0"], "step must be > 0"),
        (["--step", "inf"], "step must be finite"),
        (["--range", "50", "--step", "inf"], "step must be finite"),
    ])
    def test_bad_step_usage_error(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, tmp_path, "transmission", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_one_point_range_needs_no_grid(self, capsys, tmp_path):
        # the point is solved alone, as the first row of the default sweep
        _, full, _ = run(capsys, tmp_path, "transmission")
        header, first = full.splitlines()[:2]
        for argv in (["--range", "50"], ["--range", "50:50"],
                     ["--range", "50", "--step", "1e308"]):
            code, out, _ = run(capsys, tmp_path, "transmission", *argv)
            assert code == 0
            assert out == f"{header}\n{first}\n"


class TestBruise:
    def test_anchor_curve(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, "bruise", "--anchor", "18@58")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        by_x = {float(r[0]): float(r[1]) for r in rows}
        assert by_x[58.0] == pytest.approx(18.0, abs=1e-9)
        xs = sorted(x for x in by_x if 52.0 <= x <= 58.0)
        vals = [by_x[x] for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v <= 30.0 for v in by_x.values())
        assert all(r[2] == "false" for r in rows)

    def test_threshold_flag(self, capsys, tmp_path):
        code, out, err = run(capsys, tmp_path, "bruise", "--anchor", "100@58")
        assert code == 0
        assert "true" in out
        assert "threshold exceeded" in err

    def test_anchor_outside_range(self, capsys, tmp_path):
        code, _, err = run(capsys, tmp_path, "bruise", "--anchor", "18@70")
        assert code == 2

    @pytest.mark.parametrize("step", ["0", "-1", "nan"])
    def test_nonpositive_step_usage_error(self, capsys, tmp_path, step):
        code, out, err = run(capsys, tmp_path, "bruise", "--step", step)
        assert code == 2
        assert out == ""
        assert "step must be > 0" in err

    @pytest.mark.parametrize("anchor,message", [
        ("nan@58", "anchor_force must be finite"),
        ("inf@58", "anchor_force must be finite"),
        ("nan", "anchor_force must be finite"),
        ("-5@58", "anchor force must be >= 0"),
        ("1e308@50", "overflows the clamp-force curve"),
    ])
    def test_bad_anchor_force_usage_error(self, capsys, tmp_path, anchor, message):
        code, out, err = run(capsys, tmp_path, "bruise", f"--anchor={anchor}")
        assert code == 2
        assert out == ""
        assert message in err


class TestGrasp:
    def test_dual_axial(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, "grasp", "--mode", "dual",
                           "--offset", "0", "--angle", "0")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["strength_N"] - 34.3) <= 0.2 * 34.3
        assert len(doc["witness"]) == 6

    def test_suction_rotational(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, "grasp", "--mode", "suction",
                           "--pull", "rotational")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["strength_N"] - 5.25) <= 0.2 * 5.25

    def test_offset_exceeds_radius_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, tmp_path, "grasp", "--offset", "40")
        assert code == 3

    @pytest.mark.parametrize("flag,value", [("--fruit-diameter", "nan"),
                                            ("--fruit-diameter", "inf"),
                                            ("--offset", "nan")])
    def test_nonfinite_input_usage_error(self, capsys, tmp_path, flag, value):
        code, out, err = run(capsys, tmp_path, "grasp", flag, value)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("diameter", ["1", "2001", "1e308", "1e-300"])
    def test_fruit_outside_supported_range_usage_error(self, capsys, tmp_path, diameter):
        code, out, err = run(capsys, tmp_path, "grasp", "--fruit-diameter", diameter)
        assert code == 2
        assert out == ""
        assert "fruit_radius must be in [1, 1000] mm" in err

    def test_config_model_differs_from_calibration(self, capsys, tmp_path):
        # the bundled config's grasp model (pad 18 N) is not the shipped
        # calibration (pad 8.5 N)
        code, out, _ = run(capsys, tmp_path, "grasp")
        code_cfg, out_cfg, _ = run(capsys, tmp_path, "grasp", "--config-model")
        assert code == code_cfg == 0
        assert json.loads(out_cfg)["strength_N"] != json.loads(out)["strength_N"]


class TestCampath:
    def test_report_and_poses(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, "campath", "--fruit-diameter", "75",
                           "--samples", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["interference"] is False
        assert (tmp_path / "campath_poses.csv").exists()
        assert (tmp_path / "campath_report.json").exists()

    def test_sample_bound_usage_error(self, capsys, tmp_path, cam_doc):
        code, out, err = run(capsys, tmp_path, "--config", str(cam_config(tmp_path, cam_doc)),
                             "campath", "--samples", str(campath.MAX_SAMPLES + 1))
        assert code == 2
        assert out == ""
        assert f"samples must be <= {campath.MAX_SAMPLES}" in err

    @pytest.mark.parametrize("diameter", ["1e-300", "1.99"])
    def test_tiny_fruit_usage_error(self, capsys, tmp_path, diameter):
        # 1e-300 mm once underflowed to a zero-length rail and NaN control points
        code, out, err = run(capsys, tmp_path, "campath", "--fruit-diameter", diameter)
        assert code == 2
        assert out == ""
        assert "fruit_radius must be >= 1 mm" in err

    def test_unmet_clearance_domain_error(self, capsys, tmp_path):
        code, out, err = run(capsys, tmp_path, "campath", "--fruit-diameter", "75",
                             "--clearance", "10")
        assert code == 3
        assert out == ""
        assert "cam synthesis failed: sweep clearance" in err


class TestCampathPoseSolves:
    """Each sampled pose is solved once: synthesis samples 500 poses, and a
    run at another ``--samples`` count adds exactly one pass."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every sample solved, one entry per pose of each batch."""
        calls = []
        solve = campath.solve_finger_poses

        def counting(spec, us):
            calls.extend(us)
            return solve(spec, us)
        monkeypatch.setattr(campath, "solve_finger_poses", counting)
        return calls

    @pytest.mark.parametrize("argv,expected", [
        (["campath"], 500),
        (["campath", "--samples", "200"], 700),
        (["--format", "svg", "campath"], 500 + 96),
    ])
    def test_synthesised_tracks(self, capsys, tmp_path, calls, argv, expected):
        code, _, _ = run(capsys, tmp_path, *argv)
        assert code == 0
        assert len(calls) == expected

    def test_config_cam_one_pass(self, capsys, tmp_path, calls, cam_doc):
        code, _, _ = run(capsys, tmp_path, "--config", str(cam_config(tmp_path, cam_doc)),
                         "campath", "--samples", "300")
        assert code == 0
        assert len(calls) == 300

    def test_poses_csv_is_the_reported_pass(self, capsys, tmp_path):
        code, _, _ = run(capsys, tmp_path, "campath", "--samples", "200")
        assert code == 0
        spec = campath.CamTrackSpec.from_json((tmp_path / "campath_spec.json").read_text())
        report = campath.validate_path(spec, 200)
        assert (tmp_path / "campath_poses.csv").read_text() == campath.poses_to_csv(report)
        assert (tmp_path / "campath_report.json").read_text() == campath.report_to_json(report)


class TestCampathNonFinite:
    """``json`` reads NaN and Infinity; a cam file or flag carrying one is a
    usage error that names the field."""

    @pytest.mark.parametrize("key,value,name", [
        ("tip_extension_mm", float("nan"), "tip_extension"),
        ("pad_halfwidth_mm", float("nan"), "pad_halfwidth"),
        ("fruit_radius_mm", float("inf"), "fruit_radius"),
        ("pin_separation_mm", float("nan"), "pin_separation"),
        ("inner_hard_stop", float("nan"), "inner_hard_stop"),
        ("palm_plane_z_mm", float("-inf"), "palm_plane_z"),
        ("fruit_center_mm", [0.0, float("nan")], "fruit_center_z"),
        ("contact_latitude_max_deg", float("nan"), "contact_latitude_max_deg"),
    ])
    def test_cam_field(self, capsys, tmp_path, cam_doc, key, value, name):
        config = cam_config(tmp_path, {**cam_doc, key: value})
        code, out, err = run(capsys, tmp_path, "--config", str(config), "campath")
        assert code == 2
        assert out == ""
        assert f"{name} must be finite" in err

    def test_cam_control_point(self, capsys, tmp_path, cam_doc):
        outer = json.loads(json.dumps(cam_doc["outer_path"]))
        outer[0][1][0] = float("nan")
        config = cam_config(tmp_path, {**cam_doc, "outer_path": outer})
        code, out, err = run(capsys, tmp_path, "--config", str(config), "campath")
        assert code == 2
        assert out == ""
        assert "outer_path[0].p1[0] must be finite" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda d: {**d, "fruit_center_mm": "x"}, "fruit_center_mm must be a list of 2 coordinates"),
        (lambda d: {**d, "outer_path": []}, "outer_path must have at least one segment"),
        (lambda d: {**d, "inner_path": d["inner_path"][:3]},
         "inner_path must be a list of 4 control points"),
        (lambda d: {**d, "outer_path": [d["outer_path"][0][:2] + [[9.0, 1e300]]
                                        + d["outer_path"][0][3:]]},
         "outer_path[0].p2[1] must be within +-1e+06 mm"),
        (lambda d: {**d, "pin_separation_mm": -1e300}, "pin_separation must be within"),
        (lambda d: [d], "cam track JSON must be an object"),
        (lambda d: {**d, "tip_extension_mm": "37.5"}, "tip_extension_mm must be a number"),
    ])
    def test_cam_shape(self, capsys, tmp_path, cam_doc, edit, message):
        # found by fuzzing campath with generated cam files: a traceback
        # (IndexError), a message naming no field, or overflow warnings
        config = cam_config(tmp_path, edit(cam_doc))
        code, out, err = run(capsys, tmp_path, "--config", str(config), "campath")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("command", ["transmission", "bruise"])
    @pytest.mark.parametrize("malformed,message", [
        pytest.param(True, "tip_extension must be finite", id="malformed"),
        pytest.param(False, "cam track file not found", id="missing"),
    ])
    def test_every_command_checks_the_cam_file(self, capsys, tmp_path, cam_doc, command,
                                               malformed, message):
        # config.py imports campath only when a config names a cam file,
        # so commands that never use the tracks must still check them
        config = cam_config(tmp_path, {**cam_doc, "tip_extension_mm": float("nan")}
                            if malformed else cam_doc)
        if not malformed:
            (tmp_path / "tracks.json").unlink()
        code, out, err = run(capsys, tmp_path, "--config", str(config), command)
        assert (code, out) == (2, "")
        assert message in err
        assert run(capsys, tmp_path, "--config", str(config), "campath") == (code, out, err)

    @pytest.mark.parametrize("flag,value,name", [
        ("--clearance", "nan", "clearance"),
        ("--clearance", "inf", "clearance"),
        ("--fruit-diameter", "nan", "fruit_radius"),
        ("--fruit-diameter", "inf", "fruit_radius"),
    ])
    def test_flag(self, capsys, tmp_path, flag, value, name):
        code, out, err = run(capsys, tmp_path, "campath", flag, value)
        assert code == 2
        assert out == ""
        assert f"{name} must be finite" in err


class TestSimulate:
    def test_deterministic_json(self, capsys, tmp_path):
        code1, out1, _ = run(capsys, tmp_path, "simulate", "--trials", "1", "--seed", "7")
        code2, out2, _ = run(capsys, tmp_path, "simulate", "--trials", "1", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_negative_retries_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, tmp_path, "simulate", "--trials", "1", "--retries", "-1")
        assert code == 2
        assert "retries must be >= 0" in err

    def test_negative_seed_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, tmp_path, "simulate", "--trials", "1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_usage_error(self, capsys, tmp_path, threads):
        code, _, err = run(capsys, tmp_path, "simulate", "--trials", "1",
                           "--threads", threads)
        assert code == 2
        assert "threads must be >= 1" in err

    @pytest.mark.parametrize("argv,message", [
        (["--trials", "6"], "trials must be <= 5"),
        (["--trials", "1", "--retries", "3"], "retries must be <= 2"),
    ])
    def test_campaign_caps_usage_error(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.setattr(picksim, "MAX_TRIALS", 5)
        monkeypatch.setattr(picksim, "MAX_RETRIES", 2)
        code, out, err = run(capsys, tmp_path, "simulate", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("exists", [True, False])
    def test_config_usage_error(self, capsys, tmp_path, exists):
        # simulate reads no config: the flag, even with a mistyped path,
        # fails instead of being ignored
        config = tmp_path / "gripper.json"
        if exists:
            config.write_text("{}")
        code, out, err = run(capsys, tmp_path, "--config", str(config), "simulate",
                             "--trials", "1")
        assert (code, out) == (2, "")
        assert "simulate does not read --config" in err
        assert not (tmp_path / "campaign.json").exists()

    def test_csv_log(self, capsys, tmp_path):
        code = main(["--out", str(tmp_path), "--format", "csv", "simulate",
                     "--trials", "3", "--seed", "1"])
        capsys.readouterr()
        assert code == 0
        text = (tmp_path / "campaign_trials.csv").read_text()
        assert text.startswith("trial,fdf_N,offset_mm")
        assert len(text.strip().splitlines()) == 4


class TestStats:
    def test_shipped_sample(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, "stats")
        assert code == 0
        assert "net_fdf_N" in out
        doc = json.loads("{" + out.split("{", 1)[1])
        assert doc["net_fdf_N"] == [7, 11, 15, 28, 38]

    def test_custom_csv(self, capsys, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("v\n1\n2\n3\n")
        code, out, _ = run(capsys, tmp_path, "stats", "--csv", str(p))
        assert code == 0
        doc = json.loads("{" + out.split("{", 1)[1])
        assert doc["v"] == [1, 1.5, 2, 2.5, 3]

    def test_non_finite_cell_usage_error(self, capsys, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("v\n1\nnan\n")
        code, out, err = run(capsys, tmp_path, "stats", "--csv", str(p))
        assert code == 2
        assert out == ""
        assert "non-finite value 'nan'" in err

    @pytest.mark.parametrize("text,message", [
        ("a,a\n1,2\n3,4\n", "duplicate column name 'a'"),
        ("a,b\n1,2,3\n4\n", "more cells than the 2 header columns row 2"),
    ])
    def test_malformed_table_usage_error(self, capsys, tmp_path, text, message):
        p = tmp_path / "log.csv"
        p.write_text(text)
        code, out, err = run(capsys, tmp_path, "stats", "--csv", str(p))
        assert code == 2
        assert out == ""
        assert message in err

    def test_directory_as_csv_usage_error(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, "stats", "--csv", str(tmp_path))
        assert code == 2
        assert out == ""


class TestCalibrateCommand:
    def test_small_dataset(self, capsys, tmp_path):
        data = tmp_path / "ref.csv"
        data.write_text(
            "mode,offset_mm,angle_deg,pull_type,strength_N,stdev_N,source\n"
            "suction,0,0,axial,12.0,0.3,authoritative\n"
            "fingers,0,0,axial,23.1,2.5,authoritative\n"
            "dual,0,0,axial,34.3,1.6,authoritative\n"
        )
        code, out, _ = run(capsys, tmp_path, "calibrate", "--data", str(data))
        assert code == 0
        doc = json.loads(out)
        assert "params" in doc and "residuals" in doc
        assert len(doc["residuals"]) == 3
        assert (tmp_path / "calibrated_params.json").exists()

    @pytest.mark.parametrize("strength,stdev,name", [
        ("nan", "0.3", "strength"), ("inf", "0.3", "strength"),
        ("12.0", "nan", "stdev"), ("12.0", "inf", "stdev")])
    def test_non_finite_reference_usage_error(self, capsys, tmp_path, strength, stdev, name):
        data = tmp_path / "ref.csv"
        data.write_text(
            "mode,offset_mm,angle_deg,pull_type,strength_N,stdev_N,source\n"
            f"suction,0,0,axial,{strength},{stdev},authoritative\n"
            "dual,0,0,axial,34.3,1.6,authoritative\n"
        )
        code, out, err = run(capsys, tmp_path, "calibrate", "--data", str(data))
        assert code == 2
        assert out == ""
        assert f"{name} must be finite" in err and "row 2" in err

    @pytest.mark.parametrize("row,message", [
        ("suction,0,0,axial,12,-1,authoritative", "stdev must be >= 0, got -1.0"),
        ("suction,0,0,axial,12,1,authorative", "source must be authoritative or approximate"),
        ("suction,0,450,axial,12,1,authoritative", "pull_angle must be in [0, 90] deg"),
        ("suction,0,0,axial,12,1,authoritative,99", "more cells than the 7 header columns"),
    ])
    def test_bad_reference_row_usage_error(self, capsys, tmp_path, row, message):
        data = tmp_path / "ref.csv"
        data.write_text("mode,offset_mm,angle_deg,pull_type,strength_N,stdev_N,source\n"
                        "dual,0,0,axial,34.3,1.6,authoritative\n"
                        f"{row}\n")
        code, out, err = run(capsys, tmp_path, "calibrate", "--data", str(data))
        assert code == 2
        assert out == ""
        assert message in err and "row 3" in err

    def test_repeated_column_usage_error(self, capsys, tmp_path):
        data = tmp_path / "ref.csv"
        data.write_text("mode,offset_mm,angle_deg,pull_type,strength_N,stdev_N,source,strength_N\n"
                        "suction,0,0,axial,12.0,0.3,authoritative,99.0\n")
        code, out, err = run(capsys, tmp_path, "calibrate", "--data", str(data))
        assert (code, out) == (2, "")
        assert "duplicate column name 'strength_N'" in err

    @pytest.mark.parametrize("strength", ["0", "-3"])
    def test_non_positive_strength_names_its_row(self, capsys, tmp_path, strength):
        data = tmp_path / "ref.csv"
        data.write_text("mode,offset_mm,angle_deg,pull_type,strength_N,stdev_N,source\n"
                        f"suction,0,0,axial,{strength},0.3,authoritative\n"
                        "dual,0,0,axial,34.3,1.6,authoritative\n")
        code, out, err = run(capsys, tmp_path, "calibrate", "--data", str(data))
        assert code == 2
        assert out == ""
        assert "strength must be > 0" in err and "row 2" in err

    @pytest.mark.parametrize("rows,message", [
        # no admissible point fits a 1e6 N suction grasp and a 1e-6 N finger grasp
        (["suction,0,0,axial,1e6,1,authoritative", "fingers,0,0,axial,1e-6,1,authoritative"],
         "search left the admissible parameter region"),
        # one scenario measured at 1, 100 and 100 N: no fit comes within 50%
        (["dual,0,0,axial,1,1,authoritative", "dual,0,0,axial,100,1,authoritative",
          "dual,0,0,axial,100,1,authoritative"],
         "mean relative error 66.6% >= 50%"),
    ])
    def test_diverged_fit_numerical_error(self, capsys, tmp_path, rows, message):
        data = tmp_path / "ref.csv"
        data.write_text("\n".join(
            ["mode,offset_mm,angle_deg,pull_type,strength_N,stdev_N,source", *rows, ""]))
        code, out, err = run(capsys, tmp_path, "calibrate", "--data", str(data))
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "calibrated_params.json").exists()

    def test_unfitted_row_sharing_a_scenario_is_not_fitted(self, capsys, tmp_path):
        # an approximate row that repeats an authoritative row's scenario is
        # left out of the fit and of its error check
        code, bundled, _ = run(capsys, tmp_path, "calibrate")
        data = tmp_path / "ref.csv"
        data.write_text(data_text("grasp_reference.csv")
                        + "suction,0,0,axial,1.0,0.3,approximate\n")
        code2, out, err = run(capsys, tmp_path, "calibrate", "--data", str(data))
        assert code == code2 == 0, err
        doc, want = json.loads(out), json.loads(bundled)
        assert json.dumps(doc["params"]) == json.dumps(want["params"])
        assert doc["mean_sq_rel_error"] == want["mean_sq_rel_error"]
        assert doc["residuals"][:-1] == want["residuals"]


class TestUsage:
    def test_unknown_command(self, capsys, tmp_path):
        assert main(["bogus"]) == 2

    @pytest.mark.parametrize("argv", [["transmission", "--range=--"],
                                      ["transmission", "--f-out=--"],
                                      ["bruise", "--anchor=--"],
                                      ["grasp", "--offset=--"]])
    def test_double_dash_option_value_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, tmp_path, *argv)
        assert code == 2
        assert out == ""
        assert "'--' is not an option value" in err

    @pytest.mark.parametrize("exists", [True, False])
    @pytest.mark.parametrize("command,output", [("calibrate", "calibrated_params.json"),
                                                ("simulate", "campaign.json"),
                                                ("stats", "stats.json")])
    def test_config_on_a_command_that_reads_none(self, capsys, tmp_path, command, output,
                                                 exists):
        # calibrate and stats once ran and exited 0 with the flag ignored, so
        # a mistyped path went unnoticed; each fails before it runs
        config = tmp_path / "gripper.json"
        if exists:
            config.write_text(data_text("default_config.json"))
        extra = ["--trials", "1"] if command == "simulate" else []
        code, out, err = run(capsys, tmp_path, "--config", str(config), command, *extra)
        assert (code, out) == (2, "")
        assert f"error: {command} does not read --config" in err
        assert not (tmp_path / output).exists()

    def test_config_help_names_the_commands_that_read_none(self, capsys):
        assert main(["--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "calibrate, simulate and stats do not read it and exit 2" in text


def toolkit_errors(cls=errors.ToolkitError):
    for sub in cls.__subclasses__():
        yield sub
        yield from toolkit_errors(sub)


# the exit code each error class is decided to give; a new ToolkitError
# subclass must be added here
EXIT_CODES = {
    ValueError: 2,
    OSError: 2,
    errors.ParseError: 2,
    errors.LpNumericalFailure: 4,
    errors.CalibrationDiverged: 4,
    errors.GeometryInfeasible: 3,
    errors.NegativeY: 3,
    errors.DenominatorNonpositive: 3,
    errors.SynthesisFailed: 3,
    errors.PoseUnsolvable: 3,
    errors.OffsetExceedsRadius: 3,
}


class TestExitCodes:
    @pytest.mark.parametrize("exc_type", [*toolkit_errors(), ValueError, OSError],
                             ids=lambda cls: cls.__name__)
    def test_error_class_exit_code(self, capsys, tmp_path, monkeypatch, exc_type):
        def fail(args):
            raise exc_type("boom")

        monkeypatch.setattr(cli, "cmd_stats", fail)
        assert exc_type in EXIT_CODES, f"{exc_type.__name__} has no decided exit code"
        code, out, err = run(capsys, tmp_path, "stats")
        assert code == EXIT_CODES[exc_type]
        assert out == ""
        assert err.startswith("error: ") and "boom" in err

    def test_closed_stdout_exits_one_quietly(self, tmp_path):
        # the read end is closed before the child writes, as when
        # ``tandemgrip grasp | head -1`` has read its line; no usage error
        script = ("import sys\nfrom tandemgrip.cli import main\n"
                  f"sys.exit(main(['--out', {str(tmp_path)!r}, 'grasp']))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(tandemgrip.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (1, b"")


class TestNonFiniteConfig:
    """``json`` reads NaN and Infinity; such a config is a usage error."""

    @pytest.mark.parametrize("section,field,value,argv", [
        ("linkage", "l_b_mm", float("nan"), ["transmission"]),
        ("linkage", "l_b_mm", float("nan"), ["bruise"]),
        ("grasp_model", "pad_force_N", float("nan"), ["grasp", "--config-model"]),
        ("screw", "mu", float("inf"), ["transmission"]),
        (None, "bruise_threshold_N", float("nan"), ["bruise"]),
        ("grasp_model", "mu_pad", float("nan"), ["grasp", "--config-model"]),
    ])
    def test_exit_2(self, capsys, tmp_path, section, field, value, argv):
        doc = json.loads(data_text("default_config.json"))
        (doc[section] if section else doc)[field] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, tmp_path, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("value", [float("nan"), None])
    def test_bad_mu_pad_named(self, capsys, tmp_path, value):
        # None drops the key
        doc = json.loads(data_text("default_config.json"))
        if value is None:
            del doc["grasp_model"]["mu_pad"]
        else:
            doc["grasp_model"]["mu_pad"] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, tmp_path, "--config", str(cfg), "grasp", "--config-model")
        assert code == 2
        assert out == ""
        assert "mu_pad" in err

    def test_integer_past_float_range_usage_error(self, capsys, tmp_path):
        doc = json.loads(data_text("default_config.json"))
        doc["linkage"]["p_x_mm"] = 10 ** 400
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, tmp_path, "--config", str(cfg), "transmission")
        assert code == 2
        assert out == ""
        assert "too large" in err


# the six commands of the benchmark's cli workload
BENCH_COMMANDS = {
    "transmission": ["transmission"],
    "bruise": ["bruise"],
    "grasp-dual": ["grasp", "--mode", "dual", "--angle", "45"],
    "grasp-suction": ["grasp", "--mode", "suction", "--pull", "rotational"],
    "stats": ["stats"],
    "campath": ["campath"],
}


def fresh_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout; its stdout."""
    src = str(Path(tandemgrip.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after_command(tmp_path, argv) -> set[str]:
    """``sys.modules`` after ``cli.main(argv)`` in a fresh interpreter."""
    return set(json.loads(fresh_python(
        "import contextlib, io, json, sys\n"
        "from tandemgrip import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['--out', {str(tmp_path)!r}, *{argv!r}])\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )))


class TestColdStart:
    @pytest.mark.parametrize("command", BENCH_COMMANDS)
    def test_no_command_imports_scipy(self, tmp_path, command):
        # calibration has its own Nelder-Mead, so scipy stays out of every command
        loaded = modules_after_command(tmp_path, BENCH_COMMANDS[command])
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]

    # modules each command must not load: every command imports its layers in
    # its own body, and a module-level import in cli.py, config.py or
    # __init__.py would put them back in front of every command
    NOT_LOADED = {
        "transmission": {"numpy"},
        "bruise": {"numpy"},
        "grasp-dual": {"tandemgrip.campath", "tandemgrip.picksim", "tandemgrip.quantiles"},
        "grasp-suction": {"tandemgrip.campath", "tandemgrip.picksim", "tandemgrip.quantiles"},
        "stats": {"numpy", "tandemgrip.wrench", "tandemgrip.campath"},
        "campath": {"tandemgrip.wrench", "tandemgrip.simplexlp", "tandemgrip.picksim"},
    }

    @pytest.mark.parametrize("command", BENCH_COMMANDS)
    def test_command_loads_only_its_layers(self, tmp_path, command):
        loaded = modules_after_command(tmp_path, BENCH_COMMANDS[command])
        assert not self.NOT_LOADED[command] & loaded


class TestPackageSurface:
    HOMES = {
        "ActuationMode": "wrench",
        "DEFAULT_LINKAGE": "linkage",
        "DEFAULT_SCREW": "leadscrew",
        "DEFAULT_TRAVEL": "linkage",
        "GraspModelParams": "config",
        "GraspScenario": "wrench",
        "LinkageParams": "linkage",
        "PullType": "wrench",
        "ScrewParams": "leadscrew",
        "TravelRange": "linkage",
    }

    def test_names_resolve_to_their_home_modules(self):
        assert sorted(tandemgrip.__all__) == sorted(self.HOMES)
        for name, home in self.HOMES.items():
            module = importlib.import_module(f"tandemgrip.{home}")
            assert getattr(tandemgrip, name) is getattr(module, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from tandemgrip import *", namespace)
        for name in tandemgrip.__all__:
            assert namespace[name] is getattr(tandemgrip, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'nope'"):
            tandemgrip.nope

    def test_grasp_model_params_has_one_class(self):
        from tandemgrip import config, wrench
        assert wrench.GraspModelParams is config.GraspModelParams

    def test_bare_import_loads_no_numpy(self):
        fresh_python("import sys, tandemgrip\nassert 'numpy' not in sys.modules\n")

    def test_summaries_load_no_numpy(self):
        # summaries are pure Python; only QuantileModel.sample imports numpy
        fresh_python("import sys\n"
                     "from tandemgrip.quantiles import summarize_csv_text\n"
                     "summarize_csv_text('a,b\\n1,2\\n3,4.5\\n')\n"
                     "assert 'numpy' not in sys.modules\n")


class TestSimulateStats:
    def test_custom_trial_stats_json(self, capsys, tmp_path):
        from tandemgrip.picksim import DEFAULT_FIELD_STATS
        p = tmp_path / "stats.json"
        p.write_text(DEFAULT_FIELD_STATS.to_json())
        code1, out1, _ = run(capsys, tmp_path, "simulate", "--trials", "2",
                             "--seed", "3", "--stats", str(p))
        code2, out2, _ = run(capsys, tmp_path, "simulate", "--trials", "2",
                             "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2  # same statistics, same seed, same result

    @pytest.mark.parametrize("edit,argv,message", [
        (lambda d: {}, [], "field 'fruit_diameter' is missing"),
        (lambda d: [1, 2], [], "must be an object"),
        (lambda d: {**d, "net_fdf": [7, 15, 38]}, [], "field 'net_fdf'"),
        (lambda d: {**d, "gripper_offset": [float("nan")] * 5}, ["--mode", "fingers"],
         "field 'gripper_offset': q_min must be finite"),
        (lambda d: {**d, "net_fdf": [0, 0, 0, 0, 1e308]}, [], "field 'net_fdf'"),
        (lambda d: {**d, "tangential_fdf": [-40, -30, -20, -10, -5]}, [],
         "field 'tangential_fdf' must be >= 0"),
        (lambda d: {**d, "net_fdf": [-40, -30, -20, -10, -5]}, [], "field 'net_fdf' must be >= 0"),
        (lambda d: {**d, "branch_stiffness": [-400, -300, -200, -100, -50]}, [],
         "field 'branch_stiffness' must be >= 0"),
        # float() read false and true as 0 and 1, and the campaign ran
        (lambda d: {**d, "net_fdf": [False, True, True, True, True]}, [],
         "field 'net_fdf': q_min must be a number, got False"),
        # a lateral distance: these offsets engaged every fingers trial
        (lambda d: {**d, "gripper_offset": [-60, -50, -40, -35, -31]}, ["--mode", "fingers"],
         "field 'gripper_offset' must be >= 0"),
    ])
    def test_bad_trial_stats_usage_error(self, capsys, tmp_path, edit, argv, message):
        from tandemgrip.picksim import DEFAULT_FIELD_STATS
        p = tmp_path / "stats.json"
        p.write_text(json.dumps(edit(json.loads(DEFAULT_FIELD_STATS.to_json()))))
        code, out, err = run(capsys, tmp_path, "simulate", "--trials", "2",
                             "--stats", str(p), *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert not (tmp_path / "campaign_trials.csv").exists()


class TestTransmissionScript:
    def test_main_writes_the_cli_outputs(self, capsys, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "scripts" / "transmission_curves.py"
        spec = importlib.util.spec_from_file_location("transmission_curves", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT", tmp_path)
        script.main()
        assert capsys.readouterr().out.splitlines() == [
            "peak motor torque 0.3487 N*m at x = 50.0 mm",
            "force ratio at stop: 0.9263",
            "clamp force at stop: 20.43 N (threshold 30 N)",
            "screw self-locking: False (lowering torque at 100 N: -0.0512 N*m)",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bruise.csv", "bruise.svg", "transmission.csv", "transmission.svg"]


class TestFieldCampaignScript:
    def test_main_writes_one_directory_per_run(self, capsys, tmp_path, monkeypatch):
        from tandemgrip.config import shipped_calibration
        from tandemgrip.picksim import (DEFAULT_FIELD_STATS, LEAF_OCCLUSION_FAIL_PROB,
                                        run_campaign, trials_to_csv)
        from tandemgrip.wrench import ActuationMode
        path = Path(__file__).resolve().parents[1] / "scripts" / "field_campaign.py"
        spec = importlib.util.spec_from_file_location("field_campaign", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT", tmp_path)
        monkeypatch.setattr(script, "TRIALS", 12)
        script.main()
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "suction", "fingers", "dual", "dual_leaf_occlusion"]
        model = shipped_calibration()
        for name, mode, occlusion in [
                ("suction", ActuationMode.SUCTION, 0.0),
                ("fingers", ActuationMode.FINGERS, 0.0),
                ("dual", ActuationMode.DUAL, 0.0),
                ("dual_leaf_occlusion", ActuationMode.DUAL, LEAF_OCCLUSION_FAIL_PROB)]:
            want = run_campaign(DEFAULT_FIELD_STATS, model, mode, 12, 0,
                                occlusion_fail_prob=occlusion)
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == [
                "campaign.json", "campaign_trials.csv"]
            assert (tmp_path / name / "campaign.json").read_text() == want.to_json()
            assert (tmp_path / name / "campaign_trials.csv").read_text() == \
                trials_to_csv(want.log)


class TestGraspStrengthStudyScript:
    def test_main_writes_the_fit_and_the_sweeps(self, capsys, tmp_path, monkeypatch,
                                                fresh_calibration):
        from tandemgrip.wrench import calibration_to_json
        path = Path(__file__).resolve().parents[1] / "scripts" / "grasp_strength_study.py"
        spec = importlib.util.spec_from_file_location("grasp_strength_study", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT", tmp_path)
        fitted = []   # the script fits every bundled row, as fresh_calibration did

        def calibrate(reference):
            fitted.append(len(reference.rows))
            return fresh_calibration
        monkeypatch.setattr(script, "calibrate", calibrate)
        script.main()
        assert fitted == [27]
        assert capsys.readouterr().out.splitlines() == [
            "fitted: pad 8.51 N, mu 0.933, cup 4.45 N, shear fraction 0.686",
            "mean |relative error| over the dataset: 12.7%",
            "rotational suction: 4.51 N",
            "rotational fingers: 13.76 N",
            "rotational dual: 22.71 N",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "calibrated_params.json", "strength_vs_angle.svg", "strength_vs_offset.csv",
            "strength_vs_offset.svg"]
        assert (tmp_path / "calibrated_params.json").read_text() == \
            calibration_to_json(fresh_calibration)
        assert (tmp_path / "strength_vs_offset.csv").read_text().splitlines()[:2] == [
            "offset_mm,suction,fingers,dual", "0,13.3508646,23.8275858,37.1784504"]


# Fuzzing: every generated argv ends in exit 0, 2, 3 or 4, and a run that exits
# 0 prints, and writes in its CSVs, no NaN or infinity. Range ends stay within
# [-100, 200] mm and finite steps at or above 0.1 mm, so no example builds more
# than 3,000 rows.
SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e308", "-1e308",
                           "1e-320", "", "x"])
ANY_FLOAT = st.floats().map(repr)
NON_FINITE = re.compile(r"(?i)\bnan\b|\binf(inity)?\b")


def numbers(lo, hi):
    """Text of a float: a special value, any float, or one from [lo, hi]."""
    return SPECIAL | ANY_FLOAT | st.floats(lo, hi).map(repr)


STEP = SPECIAL | st.floats(0.1, 1e3).map(repr) | st.floats(-1e3, 0.0).map(repr)
RANGE = st.lists(SPECIAL | st.floats(-100.0, 200.0).map(repr), min_size=1, max_size=2)
RANGE_TEXT = st.one_of(
    RANGE.map(":".join),
    st.tuples(RANGE, STEP).map(lambda t: ":".join([*t[0], t[1]])),
    st.text(":-.0123456789e", max_size=8),
)


def options(**choices):
    """Generated ``--name=value`` options; each is present or absent."""
    parts = [st.one_of(st.just([]), value.map(lambda v, n=name: [f"--{n}={v}"]))
             for name, value in choices.items()]
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


TRANSMISSION = options(range=RANGE_TEXT, step=STEP, **{"f-out": numbers(-100.0, 1e3)})
BRUISE = options(
    anchor=st.one_of(
        numbers(-10.0, 100.0),
        st.tuples(numbers(-10.0, 100.0), numbers(45.0, 65.0)).map("@".join),
        st.text("@-.0123456789en", max_size=8)),
    step=STEP,
)
GRASP = options(
    offset=numbers(-5.0, 60.0), angle=numbers(-10.0, 100.0),
    **{"fruit-diameter": numbers(0.0, 2100.0)},
    mode=st.sampled_from(["suction", "fingers", "dual", "both"]),
    pull=st.sampled_from(["axial", "rotational", ""]),
)

# --trials and --samples stay small and --threads tiny: a run never asks for
# much work or many workers
SMALL_INT = SPECIAL | st.integers(-2, 4).map(str)
CAMPATH = options(**{"fruit-diameter": numbers(0.0, 300.0)}, clearance=numbers(-5.0, 50.0),
                  samples=SPECIAL | st.integers(-2, 50).map(str))
SIMULATE = st.tuples(
    options(trials=SPECIAL | st.integers(-2, 20).map(str),
            seed=SPECIAL | st.integers(-10, 2**70).map(str),
            mode=st.sampled_from(["suction", "fingers", "dual", "both"]),
            threads=SMALL_INT, retries=SMALL_INT,
            stats=st.sampled_from(["missing.json", ""])),
    st.sampled_from([[], ["--occlusion"]]),
).map(lambda t: t[0] + t[1])
# generated TrialStats JSON for simulate --stats: five sorted positive numbers
# per field, or the same with one field spoilt (missing, negative, too short or
# too long, non-finite, past the float range, not a list), or a document of
# another shape
STATS_FIELDS = ["fruit_diameter", "fruit_height", "fruit_weight", "net_fdf",
                "tangential_fdf", "normal_fdf", "branch_stiffness", "gripper_offset"]
FIVE = st.lists(st.floats(2.0, 200.0), min_size=5, max_size=5).map(sorted)
SPOILT = st.one_of(
    st.just("MISSING"),
    st.lists(st.floats(-100.0, 100.0), min_size=5, max_size=5).map(sorted),
    st.lists(st.floats(0.0, 100.0), max_size=7).map(sorted),
    st.lists(st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, 10 ** 400]),
             min_size=1, max_size=5).map(lambda v: [0.0] * (5 - len(v)) + v),
    st.sampled_from([None, "x", 3.0, [[1.0]] * 5]),
)
TRIAL_STATS = st.fixed_dictionaries({name: FIVE for name in STATS_FIELDS})
STATS_JSON = st.one_of(
    TRIAL_STATS,
    st.tuples(TRIAL_STATS, st.sampled_from(STATS_FIELDS), SPOILT).map(
        lambda t: {k: v for k, v in {**t[0], t[1]: t[2]}.items() if v != "MISSING"}),
    st.sampled_from([[1, 2], None, "x", 3.0]),
).map(json.dumps) | st.sampled_from(["", "{", "not json"])
# simulate options the parser and the campaign accept, so the statistics decide
CAMPAIGN = options(trials=st.integers(1, 20).map(str), seed=st.integers(0, 2**40).map(str),
                   mode=st.sampled_from(["suction", "fingers", "dual"]),
                   retries=st.integers(0, 4).map(str))
# the generated CSV is written to a file, and "LOG" in an option names it
STATS = options(csv=st.sampled_from(["LOG", "missing.csv", ""]))
CSV_TEXT = st.tuples(
    st.lists(st.sampled_from(["fruit_diameter_mm", "net_fdf_N", "x", ""]), max_size=3),
    st.lists(st.lists(SPECIAL | ANY_FLOAT | st.floats(-1e3, 1e3).map(repr), max_size=3),
             max_size=4),
).map(lambda t: "\n".join(",".join(r) for r in [t[0], *t[1]]))


# generated cam track files for campath --config: the synthesized tracks
# with up to three numbers nudged or replaced, then perhaps one field, or the
# whole document, of another shape
CAM_SCALARS = ["pin_separation_mm", "inner_hard_stop", "fruit_radius_mm", "palm_plane_z_mm",
               "tip_extension_mm", "pad_halfwidth_mm", "contact_latitude_max_deg"]
CAM_NUMBER = st.one_of(
    st.floats(-2.0, 2.0).map(lambda e: lambda v: v + e),
    st.floats(-40.0, 40.0).map(lambda e: lambda v: v + e),
    st.sampled_from([float("nan"), float("inf"), 0.0, -1.0, 1e-300, 1e300, -1e300, 1e6])
    .map(lambda x: lambda v: x),
)


def _nudge_cam(pick, change):
    """Apply ``change`` to the number of a cam document that ``pick`` selects."""
    def nudge(doc):
        paths = ([(k,) for k in CAM_SCALARS] + [("fruit_center_mm", i) for i in range(2)]
                 + [("inner_path", j, i) for j in range(4) for i in range(2)]
                 + [("outer_path", k, j, i) for k in range(len(doc["outer_path"]))
                    for j in range(4) for i in range(2)])
        *parents, last = paths[pick % len(paths)]
        node = doc
        for key in parents:
            node = node[key]
        node[last] = change(node[last])
    return nudge


CAM_NUDGE = st.builds(_nudge_cam, st.integers(0, 10 ** 6), CAM_NUMBER)
CAM_SPOIL = st.one_of(
    st.integers(0, 3).map(lambda n: lambda doc: {**doc, "outer_path": doc["outer_path"][:n]}),
    st.tuples(st.sampled_from(CAM_SCALARS + ["fruit_center_mm", "inner_path", "outer_path"]),
              st.sampled_from([None, "x", [], [1.0], [[1.0, 2.0]] * 4, {}])).map(
        lambda t: lambda doc: {**doc, t[0]: t[1]}),
    st.sampled_from(CAM_SCALARS).map(
        lambda k: lambda doc: {n: v for n, v in doc.items() if n != k}),
    st.sampled_from([[], None, "x", 3.0, {}]).map(lambda other: lambda doc: other),
)


def run_quietly(argv, written="*.csv"):
    """Exit code, and stdout followed by every file matching ``written``
    that the command wrote."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--out", d, *argv])
        files = "".join(p.read_text() for p in sorted(Path(d).glob(written)))
    return code, out.getvalue() + files


class TestCliFuzz:
    @settings(max_examples=150)
    @given(argv=st.one_of(TRANSMISSION.map(lambda a: ["transmission", *a]),
                          BRUISE.map(lambda a: ["bruise", *a]),
                          GRASP.map(lambda a: ["grasp", *a])))
    def test_exit_codes_and_finite_output(self, argv):
        code, out = run_quietly(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        if code == 0:
            assert not NON_FINITE.search(out), (argv, out[:400])

    @settings(max_examples=60)
    @given(argv=st.one_of(CAMPATH.map(lambda a: ["campath", *a]),
                          SIMULATE.map(lambda a: ["simulate", *a]),
                          STATS.map(lambda a: ["stats", *a])),
           csv_text=CSV_TEXT)
    def test_campath_simulate_stats(self, argv, csv_text):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "log.csv"
            path.write_text(csv_text)
            code, out = run_quietly([a.replace("LOG", str(path)) for a in argv])
        assert code in (0, 2, 3, 4), (argv, code)
        if code == 0:
            assert not NON_FINITE.search(out), (argv, out[:400])

    @settings(max_examples=60)
    @given(data=st.data(), samples=st.integers(2, 30), svg=st.booleans())
    def test_campath_cam_config(self, cam_doc, data, samples, svg):
        doc = json.loads(json.dumps(cam_doc))
        for nudge in data.draw(st.lists(CAM_NUDGE, max_size=3)):
            nudge(doc)
        spoil = data.draw(st.none() | CAM_SPOIL)
        if spoil is not None:
            doc = spoil(doc)
        with tempfile.TemporaryDirectory() as d:
            config = cam_config(Path(d), doc)
            code, out = run_quietly(["--config", str(config), *["--format=svg"] * svg,
                                     "campath", f"--samples={samples}"], written="*")
        assert code in (0, 2, 3, 4), (doc, code)
        if code == 0:
            assert not NON_FINITE.search(out), (doc, out[:400])

    @settings(max_examples=60)
    @given(argv=CAMPAIGN, occlusion=st.booleans(), stats_json=STATS_JSON)
    def test_simulate_trial_stats(self, argv, occlusion, stats_json):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "stats.json"
            path.write_text(stats_json)
            code, out = run_quietly(["simulate", *argv, *["--occlusion"] * occlusion,
                                     f"--stats={path}"])
        assert code in (0, 2, 3, 4), (argv, stats_json, code)
        if code == 0:
            assert not NON_FINITE.search(out), (argv, stats_json, out[:400])
