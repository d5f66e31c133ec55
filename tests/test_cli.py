"""Command-line interface: outputs, determinism, exit codes."""

import json

import pytest

from tandemgrip.cli import main


def run(capsys, tmp_path, *argv):
    code = main(["--out", str(tmp_path), *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_usage_error(self, capsys, tmp_path, threads):
        code, _, err = run(capsys, tmp_path, "simulate", "--trials", "1",
                           "--threads", threads)
        assert code == 2
        assert "threads must be >= 1" in err

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


class TestUsage:
    def test_unknown_command(self, capsys, tmp_path):
        assert main(["bogus"]) == 2


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
