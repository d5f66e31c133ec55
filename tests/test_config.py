"""Gripper configuration loading."""

import json
import math
import re

import pytest

from tandemgrip.campath import build_default_tracks
from tandemgrip.config import GripperConfig, default_config, shipped_calibration
from tandemgrip.errors import ParseError


def config_doc(cam="default"):
    return {
        "linkage": {"p_x_mm": 12.0, "l_b_mm": 18.5, "l_k_mm": 17.5,
                    "l_f_mm": 48.0, "p_y_mm": 90.0, "l_n_mm": 7.0},
        "screw": {"pitch_mm": 2.0, "n_starts": 4, "thread_angle_deg": 14.5,
                  "d_outer_mm": 8.0, "mu": 0.2},
        "travel": {"x_min_mm": 50.0, "x_max_mm": 59.0},
        "grasp_model": {"pad_force_N": 18.0, "mu_pad": 0.8,
                        "suction_axial_N": 4.0, "shear_fraction": 0.5},
        "cam": cam,
        "bruise_threshold_N": 30.0,
    }


class TestLoad:
    def test_bundled_default(self):
        cfg = default_config()
        assert cfg.linkage.p_x == 12.0
        assert cfg.screw.thread_angle == pytest.approx(math.radians(14.5))
        assert cfg.cam is None
        assert cfg.bruise_threshold == 30.0

    def test_cam_file_reference(self, tmp_path):
        spec, _ = build_default_tracks(37.5, 3.0)
        (tmp_path / "tracks.json").write_text(spec.to_json())
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config_doc(cam="tracks.json")))
        cfg = GripperConfig.load(cfg_path)
        assert cfg.cam == spec

    def test_missing_cam_file(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config_doc(cam="nope.json")))
        with pytest.raises(ParseError):
            GripperConfig.load(cfg_path)

    def test_invalid_field(self, tmp_path):
        doc = config_doc()
        doc["linkage"]["p_x_mm"] = -1.0
        with pytest.raises(ParseError):
            GripperConfig.from_json(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ParseError):
            GripperConfig.from_json("not json at all")

    def test_shipped_calibration_loads(self):
        params = shipped_calibration()
        assert params.pad_force > 0
        assert 0 < params.shear_fraction <= 1


class TestFieldTypes:
    """Every numeric field must be a JSON number; ``float`` and ``int`` would
    silently read ``true`` as 1, a numeric string as its value and 2.5 starts
    as 2."""

    FIELDS = [("linkage", "p_x_mm"), ("screw", "n_starts"), ("screw", "mu"),
              ("travel", "x_max_mm"), ("grasp_model", "pad_force_N"),
              ("grasp_model", "shear_fraction"), (None, "bruise_threshold_N")]

    @pytest.mark.parametrize("section,field", FIELDS)
    @pytest.mark.parametrize("value", [True, "4", None])
    def test_non_number_rejected(self, section, field, value):
        doc = config_doc()
        (doc[section] if section else doc)[field] = value
        with pytest.raises(ParseError, match=re.escape(f"{field} must be a number, got {value!r}")):
            GripperConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("starts", [2.5, 4.000001, 1e-9])
    def test_fractional_starts_rejected(self, starts):
        doc = config_doc()
        doc["screw"]["n_starts"] = starts
        with pytest.raises(ParseError, match="n_starts must be a whole number"):
            GripperConfig.from_json(json.dumps(doc))

    def test_whole_numbers_load_as_before(self):
        doc = config_doc()
        doc["screw"]["n_starts"], doc["linkage"]["p_x_mm"] = 4.0, 12
        cfg = GripperConfig.from_json(json.dumps(doc))
        assert cfg.screw.n_starts == 4 and type(cfg.screw.n_starts) is int
        assert cfg.linkage.p_x == 12.0 and type(cfg.linkage.p_x) is float
        assert cfg == default_config()
