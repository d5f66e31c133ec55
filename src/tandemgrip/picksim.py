"""Pick-protocol simulation against a proxy branch model.

Single picks walk the phase machine used in the physical trials: approach
up to 50 mm, engage suction cups, deploy the fingers, then pull back until
the detachment threshold or grasp failure. Campaigns Monte-Carlo the same
machine with per-trial draws from field-statistics quantile models; both
run one attempt through the same engage -> deploy -> pull step. Each trial
derives its own RNG stream from (seed, trial index), so results are
bit-identical regardless of execution order or thread count. A retry
re-solves the strength LP only when it lands on an engaged cup set the
trial has not solved yet; nothing is cached across trials or campaigns,
so a campaign run again in the same process (e.g. the same seed with
leaf occlusion) re-solves every strength.

Modeling notes (documented limitations):
  - variables are sampled independently; the field data carries no joint
    distribution;
  - the sampled gripper-fruit offset is the lateral alignment error and
    drives cup engagement; once suction seats the fruit the axial offset
    is taken as zero for the strength query;
  - the pull direction per trial combines the net and tangential detachment
    components into an equivalent pull angle;
  - the pull is quasi-static: branch stiffness only converts the sampled
    detachment force into pull travel.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from . import campath
from .quantiles import QuantileModel
from .wrench import (
    ActuationMode,
    CUP_LONGITUDES_DEG,
    CUP_RING_MM,
    GraspModelParams,
    GraspScenario,
    predict_strength,
)

APPROACH_LIMIT_MM = 50.0
CUP_ENGAGE_TOL_MM = 15.0        # per-cup lateral slack beyond the ring radius
FINGER_CAPTURE_TOL_MM = 30.0    # lateral offset the sweeping fingers can funnel in
LEAF_OCCLUSION_FAIL_PROB = 1.0 / 25.0   # preset for leaf-cluttered scenes


class PickPhase(enum.Enum):
    APPROACH = "approach"
    SUCTION_ENGAGE = "suction_engage"
    FINGER_DEPLOY = "finger_deploy"
    PULL = "pull"
    DONE = "done"


class PickOutcome(enum.Enum):
    PICKED = "picked"
    GRASP_SLIP = "grasp_slip"
    NO_ENGAGE = "no_engage"
    PENDING = "pending"


@dataclass(frozen=True)
class ProxyModel:
    """Lab stand-in for the fruit/branch mechanics."""

    detachment_force: float = 16.0    # N
    branch_stiffness: float = 455.0   # N/m
    fruit_diameter: float = 75.0      # mm
    fruit_mass: float = 220.0         # g

    def __post_init__(self):
        if min(self.detachment_force, self.branch_stiffness,
               self.fruit_diameter, self.fruit_mass) <= 0.0:
            raise ValueError("proxy parameters must be positive")


@dataclass(frozen=True)
class PickState:
    phase: PickPhase
    cups_engaged: int
    travel: float          # mm within the reported phase (pull travel when Done)
    outcome: PickOutcome
    strength: float = 0.0  # N, grasp strength used in the pull comparison


def cups_engaged_at(offset: float, azimuth: float) -> tuple[int, ...]:
    """Indices of the cups whose centers land within reach of the offset fruit axis.

    A cup engages when its center lies within ring + CUP_ENGAGE_TOL_MM of
    the fruit axis shifted by ``offset`` toward ``azimuth``.
    """
    fruit = offset * np.array([math.cos(azimuth), math.sin(azimuth)])
    engaged = []
    for i, lon in enumerate(CUP_LONGITUDES_DEG):
        az = math.radians(lon)
        cup = CUP_RING_MM * np.array([math.cos(az), math.sin(az)])
        if float(np.linalg.norm(cup - fruit)) <= CUP_RING_MM + CUP_ENGAGE_TOL_MM:
            engaged.append(i)
    return tuple(engaged)


def _trial_strength(mode: ActuationMode, radius: float, angle_deg: float,
                    cups: tuple[int, ...], model: GraspModelParams) -> float:
    # a dual grasp whose cups all missed holds with the fingers alone
    scenario = GraspScenario(fruit_radius=radius, pull_angle=angle_deg,
                             mode=mode if cups else ActuationMode.FINGERS)
    return predict_strength(scenario, model, cup_indices=cups)


def _attempt(mode: ActuationMode, offset: float, azimuth: float, radius: float,
             angle_deg: float, model: GraspModelParams, engage_rule: int,
             detachment_force: float,
             strengths: dict) -> tuple[tuple[int, ...], PickOutcome, float]:
    """One attempt: engage the cups, deploy the fingers, pull.

    Returns the engaged cups, the outcome and the strength (0 when nothing
    engaged). ``strengths`` maps cup sets already solved for this fruit
    and pull to their strength.
    """
    cups = () if mode is ActuationMode.FINGERS else cups_engaged_at(offset, azimuth)
    if mode is ActuationMode.SUCTION:
        engaged = len(cups) >= engage_rule
    else:
        # the sweeping fingers funnel the fruit in only from close enough
        engaged = offset <= FINGER_CAPTURE_TOL_MM
    if not engaged:
        return cups, PickOutcome.NO_ENGAGE, 0.0
    if cups not in strengths:
        strengths[cups] = _trial_strength(mode, radius, angle_deg, cups, model)
    strength = strengths[cups]
    if strength >= detachment_force:
        return cups, PickOutcome.PICKED, strength
    return cups, PickOutcome.GRASP_SLIP, strength


def _check_engage_rule(engage_rule: int) -> None:
    if engage_rule not in (1, 2, 3):
        raise ValueError("engage_rule must be 1..3")


@lru_cache(maxsize=64)
def _default_tracks_report(radius: float):
    spec = campath.build_default_tracks(radius, clearance=0.0)
    return campath.validate_path(spec, samples=64)


def run_pick(
    proxy: ProxyModel,
    scenario: GraspScenario,
    model: GraspModelParams,
    engage_rule: int = 2,
    misalignment_azimuth: float = 0.0,
) -> PickState:
    """Execute one pick through the phase machine.

    The scenario's fruit offset doubles as the lateral misalignment for cup
    engagement (lab usage). All failure paths are outcomes, not errors.
    """
    _check_engage_rule(engage_rule)
    # approach: advance until the palm meets the fruit (placed 50 mm away)
    mode, offset = scenario.mode, scenario.fruit_offset
    if mode is not ActuationMode.SUCTION:
        report = _default_tracks_report(proxy.fruit_diameter / 2.0)
        if report.interference:
            # the finger sweep would hit the fruit, so the fingers never deploy
            cups = () if mode is ActuationMode.FINGERS else cups_engaged_at(
                offset, misalignment_azimuth)
            return PickState(PickPhase.DONE, len(cups), APPROACH_LIMIT_MM,
                             PickOutcome.NO_ENGAGE)

    cups, outcome, strength = _attempt(
        mode, offset, misalignment_azimuth, scenario.fruit_radius, scenario.pull_angle,
        model, engage_rule, proxy.detachment_force, {})
    if outcome is PickOutcome.NO_ENGAGE:
        return PickState(PickPhase.DONE, len(cups), APPROACH_LIMIT_MM, outcome)
    pull_travel = proxy.detachment_force / proxy.branch_stiffness * 1000.0
    return PickState(PickPhase.DONE, len(cups), pull_travel, outcome, strength)


@dataclass(frozen=True)
class TrialStats:
    """Quantile models of the field-trial variables."""

    fruit_diameter: QuantileModel
    fruit_height: QuantileModel
    fruit_weight: QuantileModel
    net_fdf: QuantileModel
    tangential_fdf: QuantileModel
    normal_fdf: QuantileModel
    branch_stiffness: QuantileModel
    gripper_offset: QuantileModel

    def to_json(self) -> str:
        return json.dumps(
            {name: list(getattr(self, name).as_tuple()) for name in self.__dataclass_fields__},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "TrialStats":
        d = json.loads(text)
        return cls(**{name: QuantileModel(*d[name]) for name in cls.__dataclass_fields__})


# trial-log CSV columns (units in the names) -> TrialStats fields
_LOG_COLUMNS = {
    "fruit_diameter_mm": "fruit_diameter",
    "fruit_height_mm": "fruit_height",
    "fruit_weight_g": "fruit_weight",
    "net_fdf_N": "net_fdf",
    "tangential_fdf_N": "tangential_fdf",
    "normal_fdf_N": "normal_fdf",
    "branch_stiffness_Npm": "branch_stiffness",
    "gripper_offset_mm": "gripper_offset",
}


def summarize_csv(trial_log_path) -> TrialStats:
    """Five-number summaries of a trial-log CSV as a TrialStats bundle."""
    from pathlib import Path

    from .errors import ParseError
    from .quantiles import summarize_csv_text

    columns = summarize_csv_text(Path(trial_log_path).read_text())
    missing = [c for c in _LOG_COLUMNS if c not in columns]
    if missing:
        raise ParseError(f"trial log missing columns {missing}")
    return TrialStats(**{field: columns[col] for col, field in _LOG_COLUMNS.items()})


# field-trial statistics of the orchard campaign
DEFAULT_FIELD_STATS = TrialStats(
    fruit_diameter=QuantileModel(70, 76, 78, 81, 86),
    fruit_height=QuantileModel(61, 70, 73, 75, 79),
    fruit_weight=QuantileModel(181, 222, 235, 248, 284),
    net_fdf=QuantileModel(7, 11, 15, 28, 38),
    tangential_fdf=QuantileModel(1, 3, 7, 19, 31),
    normal_fdf=QuantileModel(-2, 7, 12, 19, 33),
    branch_stiffness=QuantileModel(71, 234, 410, 780, 1324),
    gripper_offset=QuantileModel(1, 5, 10, 16, 30),
)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    fdf: float          # N, net detachment force
    offset: float       # mm, lateral gripper-fruit offset
    stiffness: float    # N/m
    mode: ActuationMode
    strength: float     # N
    outcome: PickOutcome


@dataclass(frozen=True)
class CampaignResult:
    trials: int
    success_rate: float
    breakdown: dict
    log: tuple[TrialRecord, ...]

    def to_json(self) -> str:
        return json.dumps({
            "trials": self.trials,
            "success_rate": self.success_rate,
            "breakdown": {k.value: v for k, v in self.breakdown.items()},
        }, indent=2)


TRIALS_CSV_HEADER = "trial,fdf_N,offset_mm,stiffness_Npm,mode,strength_N,outcome"


def trials_to_csv(log: tuple[TrialRecord, ...]) -> str:
    lines = [TRIALS_CSV_HEADER]
    for r in log:
        lines.append(
            f"{r.trial},{r.fdf:.9g},{r.offset:.9g},{r.stiffness:.9g},"
            f"{r.mode.value},{r.strength:.9g},{r.outcome.value}"
        )
    return "\n".join(lines) + "\n"


def _run_trial(
    stats: TrialStats,
    model: GraspModelParams,
    mode: ActuationMode,
    seed: int,
    index: int,
    engage_rule: int,
    occlusion_fail_prob: float,
    retries: int,
) -> TrialRecord:
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
    strengths: dict = {}
    for attempt in range(retries + 1):
        if attempt:
            offset = float(stats.gripper_offset.sample(rng.random()))
        _, outcome, strength = _attempt(mode, offset, azimuth, diameter / 2.0, angle,
                                        model, engage_rule, net, strengths)
        if outcome is PickOutcome.PICKED:
            break
    return TrialRecord(index, net, offset, stiffness, mode, strength, outcome)


def run_campaign(
    stats: TrialStats,
    model: GraspModelParams,
    mode: ActuationMode,
    trials: int,
    seed: int,
    engage_rule: int = 2,
    occlusion_fail_prob: float = 0.0,
    retries: int = 0,
    threads: int = 1,
) -> CampaignResult:
    """Monte-Carlo pick campaign; deterministic for a given seed.

    ``occlusion_fail_prob`` defaults to 0 (open-field statistics); use
    LEAF_OCCLUSION_FAIL_PROB for leaf-cluttered scenes. ``retries``
    re-samples only the lateral offset between attempts and is off by
    default (what changes between physical attempts is not recorded).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    _check_engage_rule(engage_rule)
    args = [(stats, model, mode, seed, i, engage_rule, occlusion_fail_prob, retries)
            for i in range(trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            log = list(pool.map(lambda a: _run_trial(*a), args))
    else:
        log = [_run_trial(*a) for a in args]
    # aggregation in trial order keeps the fold independent of scheduling
    log.sort(key=lambda r: r.trial)
    breakdown = {o: 0 for o in (PickOutcome.PICKED, PickOutcome.GRASP_SLIP,
                                PickOutcome.NO_ENGAGE)}
    for r in log:
        breakdown[r.outcome] += 1
    return CampaignResult(
        trials=trials,
        success_rate=breakdown[PickOutcome.PICKED] / trials,
        breakdown=breakdown,
        log=tuple(log),
    )
