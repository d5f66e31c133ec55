"""Gripper configuration file: one JSON document, one section per module.

Units are encoded in the field names (_mm, _N, _deg); angles arrive in
degrees and are converted on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParseError, json_number, require_finite

if TYPE_CHECKING:   # imported where a config is built: commands that build none skip them
    from .campath import CamTrackSpec
    from .leadscrew import ScrewParams
    from .linkage import LinkageParams, TravelRange


def _number(section: dict, key: str) -> float:
    """A numeric config field, named by its key (see ``json_number``)."""
    return json_number(section[key], key)


@dataclass(frozen=True)
class GraspModelParams:
    """Calibratable capacity parameters of the grasp model."""

    pad_force: float = 18.0       # N, finger normal capacity at final clamp
    mu_pad: float = 0.8           # effective pad friction (soft-pad effects folded in)
    suction_axial: float = 4.0    # N per cup
    shear_fraction: float = 0.5   # kappa, shear cap fraction of tension capacity

    def __post_init__(self):
        require_finite(**vars(self))
        if min(self.pad_force, self.mu_pad, self.suction_axial) < 0.0:
            raise ValueError("capacities must be >= 0")
        if not 0.0 < self.shear_fraction <= 1.0:
            raise ValueError("shear_fraction must be in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "pad_force_N": self.pad_force,
            "mu_pad": self.mu_pad,
            "suction_axial_N": self.suction_axial,
            "shear_fraction": self.shear_fraction,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GraspModelParams":
        return cls(*(_number(d, key) for key in (
            "pad_force_N", "mu_pad", "suction_axial_N", "shear_fraction")))


@dataclass(frozen=True)
class GripperConfig:
    linkage: LinkageParams
    screw: ScrewParams
    travel: TravelRange
    grasp_model: GraspModelParams
    cam: CamTrackSpec | None    # None means "default" (synthesized on demand)
    bruise_threshold: float     # N

    @classmethod
    def from_json(cls, text: str, base_dir: Path | None = None) -> "GripperConfig":
        from .leadscrew import ScrewParams
        from .linkage import LinkageParams, TravelRange

        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config is not valid JSON: {exc}") from exc
        try:
            lk = d["linkage"]
            linkage = LinkageParams(*(_number(lk, key) for key in (
                "p_x_mm", "l_b_mm", "l_k_mm", "l_f_mm", "p_y_mm", "l_n_mm")))
            sc = d["screw"]
            n_starts = _number(sc, "n_starts")
            if not n_starts.is_integer():
                raise ValueError(f"n_starts must be a whole number, got {n_starts!r}")
            screw = ScrewParams(
                pitch=_number(sc, "pitch_mm"), n_starts=int(n_starts),
                thread_angle=math.radians(_number(sc, "thread_angle_deg")),
                d_outer=_number(sc, "d_outer_mm"), mu=_number(sc, "mu"),
            )
            tr = d["travel"]
            travel = TravelRange(x_min=_number(tr, "x_min_mm"), x_max=_number(tr, "x_max_mm"))
            grasp_model = GraspModelParams.from_dict(d["grasp_model"])
            cam_ref = d.get("cam", "default")
            if cam_ref == "default":
                cam = None
            else:
                cam_path = Path(cam_ref)
                if base_dir is not None and not cam_path.is_absolute():
                    cam_path = base_dir / cam_path
                if not cam_path.exists():
                    raise ParseError(f"cam track file not found: {cam_path}")
                from .campath import CamTrackSpec
                cam = CamTrackSpec.from_json(cam_path.read_text())
            bruise = json_number(d.get("bruise_threshold_N", 30.0), "bruise_threshold_N")
            require_finite(bruise_threshold_N=bruise)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad config field: {exc}") from exc
        return cls(linkage=linkage, screw=screw, travel=travel,
                   grasp_model=grasp_model, cam=cam, bruise_threshold=bruise)

    @classmethod
    def load(cls, path: str | Path) -> "GripperConfig":
        p = Path(path)
        return cls.from_json(p.read_text(), base_dir=p.parent)


def data_text(name: str) -> str:
    """Read a bundled data file."""
    return resources.files("tandemgrip").joinpath("data", name).read_text()


def default_config() -> GripperConfig:
    return GripperConfig.from_json(data_text("default_config.json"))


def shipped_calibration() -> GraspModelParams:
    """Grasp-model parameters from the bundled calibration run."""
    doc = json.loads(data_text("calibrated_params.json"))
    return GraspModelParams.from_dict(doc["params"])
