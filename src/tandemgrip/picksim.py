"""Pick-protocol simulation against a proxy branch model.

Single picks walk the phase machine used in the physical trials: approach
up to 50 mm, engage suction cups, deploy the fingers, then pull back until
the detachment threshold or grasp failure. Campaigns Monte-Carlo the same
machine with per-trial draws from field-statistics quantile models; both
use the same engagement rule and the same strength-vs-detachment compare.
Each trial derives its own RNG stream from (seed, trial index), so results
are bit-identical regardless of execution order.

Campaigns run in batched rounds: every unfinished trial advances to its
next strength query, and the round's queries are solved together as
batched LPs (``wrench.predict_strengths``), whose results are
byte-identical to solving them one at a time. A retry re-solves the
strength LP only when it lands on an engaged cup set the trial has not
solved yet; nothing is cached across trials or campaigns, so a campaign
run again in the same process re-solves every strength. ``threads`` is
accepted for compatibility and has no effect.

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
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .quantiles import QuantileModel
from .wrench import (
    ActuationMode,
    CUP_LONGITUDES_DEG,
    CUP_RING_MM,
    GraspModelParams,
    GraspScenario,
    predict_strength,
    predict_strengths,
)

APPROACH_LIMIT_MM = 50.0
CUP_ENGAGE_TOL_MM = 15.0        # per-cup lateral slack beyond the ring radius
FINGER_CAPTURE_TOL_MM = 30.0    # lateral offset the sweeping fingers can funnel in
LEAF_OCCLUSION_FAIL_PROB = 1.0 / 25.0   # preset for leaf-cluttered scenes
CAMPAIGN_BLOCK = 1024           # trials run through their rounds together; bounds
                                # the trials held open at once


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


def _trial_scenario(mode: ActuationMode, radius: float, angle_deg: float,
                    cups: tuple[int, ...]) -> GraspScenario:
    # a dual grasp whose cups all missed holds with the fingers alone
    return GraspScenario(fruit_radius=radius, pull_angle=angle_deg,
                         mode=mode if cups else ActuationMode.FINGERS)


def _trial_strength(mode: ActuationMode, radius: float, angle_deg: float,
                    cups: tuple[int, ...], model: GraspModelParams) -> float:
    return predict_strength(_trial_scenario(mode, radius, angle_deg, cups), model,
                            cup_indices=cups)


def _engage(mode: ActuationMode, offset: float, azimuth: float,
            engage_rule: int) -> tuple[tuple[int, ...], bool]:
    """Engaged cups and whether the grasp engaged at all.

    Suction needs ``engage_rule`` cups; with fingers, the sweeping fingers
    funnel the fruit in only from close enough.
    """
    cups = () if mode is ActuationMode.FINGERS else cups_engaged_at(offset, azimuth)
    if mode is ActuationMode.SUCTION:
        return cups, len(cups) >= engage_rule
    return cups, offset <= FINGER_CAPTURE_TOL_MM


def _pull_outcome(strength: float, detachment_force: float) -> PickOutcome:
    return PickOutcome.PICKED if strength >= detachment_force else PickOutcome.GRASP_SLIP


def _check_engage_rule(engage_rule: int) -> None:
    if engage_rule not in (1, 2, 3):
        raise ValueError("engage_rule must be 1..3")


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
    cups, engaged = _engage(mode, offset, misalignment_azimuth, engage_rule)
    if not engaged:
        return PickState(PickPhase.DONE, len(cups), APPROACH_LIMIT_MM, PickOutcome.NO_ENGAGE)
    strength = _trial_strength(mode, scenario.fruit_radius, scenario.pull_angle, cups, model)
    pull_travel = proxy.detachment_force / proxy.branch_stiffness * 1000.0
    return PickState(PickPhase.DONE, len(cups), pull_travel,
                     _pull_outcome(strength, proxy.detachment_force), strength)


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
    mode: ActuationMode,
    seed: int,
    index: int,
    engage_rule: int,
    occlusion_fail_prob: float,
    retries: int,
) -> Generator[tuple, float, TrialRecord]:
    """One trial as a generator: it yields a (scenario, cups) strength query
    whenever an attempt engages a cup set the trial has not solved yet, is
    sent the strength back, and returns the trial's record.
    """
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
        cups, engaged = _engage(mode, offset, azimuth, engage_rule)
        if engaged:
            if cups not in strengths:
                strengths[cups] = yield (_trial_scenario(mode, diameter / 2.0, angle, cups), cups)
            strength = strengths[cups]
            outcome = _pull_outcome(strength, net)
        else:
            outcome, strength = PickOutcome.NO_ENGAGE, 0.0
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
    ``threads`` (>= 1) is accepted for compatibility and affects neither
    the results nor the run time: the campaign runs in batched rounds on
    the calling thread.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    _check_engage_rule(engage_rule)
    records: dict[int, TrialRecord] = {}
    for start in range(0, trials, CAMPAIGN_BLOCK):
        # each round advances every unfinished trial of the block to its next
        # strength query (or its record), then solves the round's queries
        # as one batch
        running = {i: _run_trial(stats, mode, seed, i, engage_rule,
                                 occlusion_fail_prob, retries)
                   for i in range(start, min(start + CAMPAIGN_BLOCK, trials))}
        answers: dict[int, float | None] = dict.fromkeys(running)
        while running:
            queries = {}
            for i, trial in running.items():
                try:
                    queries[i] = trial.send(answers[i])
                except StopIteration as done:
                    records[i] = done.value
            running = {i: running[i] for i in queries}
            answers = dict(zip(queries, predict_strengths(list(queries.values()), model)))
    log = tuple(records[i] for i in range(trials))
    breakdown = {o: 0 for o in (PickOutcome.PICKED, PickOutcome.GRASP_SLIP,
                                PickOutcome.NO_ENGAGE)}
    for r in log:
        breakdown[r.outcome] += 1
    return CampaignResult(
        trials=trials,
        success_rate=breakdown[PickOutcome.PICKED] / trials,
        breakdown=breakdown,
        log=log,
    )
