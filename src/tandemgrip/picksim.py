"""Monte-Carlo pick campaigns driven by field-trial quantile models.

Each trial runs the pick protocol of the physical trials (engage the
suction cups, deploy the fingers, pull) on variables drawn from the
quantile models; its outcome tells where it ended: ``no_engage`` before
the pull, ``grasp_slip`` during it. Each trial derives its own RNG stream
from (seed, trial index), so results are bit-identical regardless of
execution order.

Campaigns run trials in blocks. A block's first attempts are one array
step: the trials' draws are stacked, each quantile model samples its
column once and one trials x cups mask engages the cups, giving each
trial the floats it would get alone; a retry draws from its trial's
stream when it is made. Then every unfinished trial advances to its next
strength query in rounds, and each round's queries are solved together as
batched LPs (``wrench.predict_strengths``), whose results are
byte-identical to solving them one at a time. A retry re-solves the
strength LP only when it lands on an engaged cup set the trial has not
solved yet; nothing is cached across trials or campaigns, so a campaign
run again in the same process re-solves every strength.

Modeling notes (documented limitations):
  - variables are sampled independently; the field data carries no joint
    distribution;
  - the sampled gripper-fruit offset is the lateral alignment error and
    drives cup engagement; once suction seats the fruit the axial offset
    is taken as zero for the strength query;
  - the pull direction per trial combines the net and tangential detachment
    components into an equivalent pull angle;
  - the pull is quasi-static: the sampled branch stiffness is logged and
    does not enter the outcome.
"""

from __future__ import annotations

import enum
import json
import math
from collections.abc import Generator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, json_number, require_finite, require_int
from .quantiles import QuantileModel
from .vectors import _norm
from .wrench import (
    ActuationMode,
    CUP_LONGITUDES_DEG,
    CUP_RING_MM,
    GraspModelParams,
    GraspScenario,
    predict_strength,
    predict_strengths,
)

CUP_ENGAGE_TOL_MM = 15.0        # per-cup lateral slack beyond the ring radius
FINGER_CAPTURE_TOL_MM = 30.0    # lateral offset the sweeping fingers can funnel in
SUCTION_ENGAGE_CUPS = 2         # cups a suction-only grasp needs (of three)
LEAF_OCCLUSION_FAIL_PROB = 1.0 / 25.0   # preset for leaf-cluttered scenes
CAMPAIGN_BLOCK = 1024           # trials run through their rounds together; bounds
                                # the trials held open at once
MAX_TRIALS = 100_000            # most trials one campaign may run
MAX_RETRIES = 100               # most retries one trial may make


class PickOutcome(enum.Enum):
    PICKED = "picked"
    GRASP_SLIP = "grasp_slip"
    NO_ENGAGE = "no_engage"


_CUP_CENTERS = CUP_RING_MM * np.array([(math.cos(a), math.sin(a)) for a in map(
    math.radians, CUP_LONGITUDES_DEG)])


def _cup_sets(offsets, azimuths) -> list[tuple[int, ...]]:
    """``cups_engaged_at`` of each (offset, azimuth) pair, from one trials x
    cups mask; distances are ``vectors._norm``'s in-order sums."""
    fruit = np.array([(d * math.cos(az), d * math.sin(az)) for d, az in zip(offsets, azimuths)])
    mask = _norm(_CUP_CENTERS - fruit[:, None]) <= CUP_RING_MM + CUP_ENGAGE_TOL_MM
    return [tuple(i for i, hit in enumerate(row) if hit) for row in mask.tolist()]


def cups_engaged_at(offset: float, azimuth: float) -> tuple[int, ...]:
    """Indices of the cups whose centers land within reach of the offset fruit axis.

    A cup engages when its center lies within ring + CUP_ENGAGE_TOL_MM of
    the fruit axis shifted by ``offset`` toward ``azimuth``.
    """
    require_finite(offset=offset, azimuth=azimuth)
    return _cup_sets([offset], [azimuth])[0]


def _trial_scenario(mode: ActuationMode, radius: float, angle_deg: float,
                    cups: tuple[int, ...]) -> GraspScenario:
    # a dual grasp whose cups all missed holds with the fingers alone
    return GraspScenario(fruit_radius=radius, pull_angle=angle_deg,
                         mode=mode if cups else ActuationMode.FINGERS)


# no caller: perfbench/spans.py hooks it by name, and test_bench_hooks fails on a missing hook
def _trial_strength(scenario: GraspScenario, cups: tuple[int, ...],
                    model: GraspModelParams) -> float:
    # the scenario's offset is a lateral misalignment: the query's axial offset is zero
    trial = _trial_scenario(scenario.mode, scenario.fruit_radius, scenario.pull_angle, cups)
    return predict_strength(replace(trial, pull_type=scenario.pull_type), model, cup_indices=cups)


def _engage(mode: ActuationMode, offsets, azimuths) -> list[tuple]:
    """Engaged cups of each offset fruit and whether its grasp engaged at all.

    Suction needs ``SUCTION_ENGAGE_CUPS`` cups; with fingers, the sweeping fingers
    funnel the fruit in only from close enough.
    """
    fingers = mode is ActuationMode.FINGERS
    cup_sets = [()] * len(offsets) if fingers else _cup_sets(offsets, azimuths)
    if mode is ActuationMode.SUCTION:
        return [(cups, len(cups) >= SUCTION_ENGAGE_CUPS) for cups in cup_sets]
    return [(cups, d <= FINGER_CAPTURE_TOL_MM) for cups, d in zip(cup_sets, offsets)]


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

    def __post_init__(self):
        # sizes, a weight, force magnitudes (a trial's pull angle is
        # asin(tangential / net)), a stiffness and a lateral distance;
        # normal_fdf is a signed component (the field data's minimum is -2 N)
        for name in ("fruit_diameter", "fruit_height", "fruit_weight", "net_fdf",
                     "tangential_fdf", "branch_stiffness", "gripper_offset"):
            lowest = getattr(self, name).q_min
            if lowest < 0.0:
                raise ParseError(f"TrialStats field {name!r} must be >= 0, got {lowest!r}")

    def to_json(self) -> str:
        return json.dumps(
            {name: list(getattr(self, name).as_tuple()) for name in self.__dataclass_fields__},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "TrialStats":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"TrialStats is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ParseError("TrialStats JSON must be an object of five-number lists")
        fields = {}
        for name in cls.__dataclass_fields__:
            if name not in d:
                raise ParseError(f"TrialStats field {name!r} is missing")
            values = d[name]
            try:
                if not isinstance(values, list) or len(values) != 5:
                    raise ValueError(f"must be a list of five numbers, got {values!r}")
                # through json_number: float() would read true and false as 1 and 0
                fields[name] = QuantileModel(*map(json_number, values,
                                                  QuantileModel.__dataclass_fields__))
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"bad TrialStats field {name!r}: {exc}") from exc
        return cls(**fields)


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


def _first_attempts(stats: TrialStats, mode: ActuationMode, seed: int, block: range,
                    occlusion_fail_prob: float):
    """(index, rng, draws, first attempt's (cups, engaged)) of each trial of
    ``block``, drawn, sampled and engaged as arrays that die with this call."""
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in block]
    u = np.array([rng.random(7) for rng in rngs])
    net, tan, diameter, offset, stiffness = (q.sample(u[:, k]).tolist() for k, q in enumerate(
        (stats.net_fdf, stats.tangential_fdf, stats.fruit_diameter, stats.gripper_offset,
         stats.branch_stiffness)))
    azimuth = (2.0 * math.pi * u[:, 5]).tolist()
    draws = zip(net, tan, diameter, offset, stiffness, azimuth,
                (u[:, 6] < occlusion_fail_prob).tolist())
    return zip(block, rngs, draws, _engage(mode, offset, azimuth))


def _run_trial(stats: TrialStats, mode: ActuationMode, retries: int, index: int,
               rng: np.random.Generator, draws: tuple,
               first: tuple) -> Generator[tuple, float, TrialRecord]:
    """One trial as a generator, from its stream, its draws and its first
    attempt's (cups, engaged): it yields a (scenario, cups) strength query
    whenever an attempt engages a cup set the trial has not solved yet, is
    sent the strength back, and returns the trial's record.
    """
    net, tan, diameter, offset, stiffness, azimuth, occluded = draws
    if occluded:
        return TrialRecord(index, net, offset, stiffness, mode, 0.0, PickOutcome.NO_ENGAGE)

    angle = math.degrees(math.asin(min(tan / max(net, 1e-9), 1.0)))
    strengths: dict = {}
    cups, engaged = first
    for attempt in range(retries + 1):
        if attempt:
            offset = float(stats.gripper_offset.sample(rng.random()))
            [(cups, engaged)] = _engage(mode, [offset], [azimuth])
        if engaged:
            if cups not in strengths:
                strengths[cups] = yield (_trial_scenario(mode, diameter / 2.0, angle, cups), cups)
            strength = strengths[cups]
            outcome = PickOutcome.PICKED if strength >= net else PickOutcome.GRASP_SLIP
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
    the calling thread. ``trials`` is at most ``MAX_TRIALS`` and
    ``retries`` at most ``MAX_RETRIES``.
    """
    require_int(trials=trials, retries=retries, seed=seed, threads=threads)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= {MAX_TRIALS}")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if retries > MAX_RETRIES:
        raise ValueError(f"retries must be <= {MAX_RETRIES}")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if isinstance(occlusion_fail_prob, bool) or not 0.0 <= occlusion_fail_prob <= 1.0:  # NaN fails
        raise ValueError(f"occlusion_fail_prob must be in [0, 1], got {occlusion_fail_prob!r}")
    records: dict[int, TrialRecord] = {}
    for start in range(0, trials, CAMPAIGN_BLOCK):
        block = range(start, min(start + CAMPAIGN_BLOCK, trials))
        running = {i: _run_trial(stats, mode, retries, i, *trial) for i, *trial
                   in _first_attempts(stats, mode, seed, block, occlusion_fail_prob)}
        # each round advances every unfinished trial of the block to its next
        # strength query (or its record), then solves the round's queries
        # as one batch
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
        trials=int(trials),   # a numpy int would not serialise
        success_rate=breakdown[PickOutcome.PICKED] / trials,
        breakdown=breakdown,
        log=log,
    )
