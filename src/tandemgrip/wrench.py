"""Grasp strength prediction via contact-wrench linear programming.

A grasped fruit is modeled as a rigid sphere held by up to three finger-pad
contacts (point contacts with linearized Coulomb friction pyramids) and
three suction-cup contacts. The bellows cups act along the gripper axis:
tension pulls the fruit toward the palm, a palm-seat reaction bounds
compression, and seal shear acts in the palm plane with a constant cap of
shear_fraction * tension_capacity per cup.

The maximum resistible pull is the largest alpha such that contact forces
inside their capacity sets balance the wrench of alpha * pull_direction
applied at the application point. Positions are expressed in a frame at the
fruit center with +z along the gripper axis pointing away from the palm, so
moments are taken about the origin.

Conventions fixed by the test geometry:
  - finger contacts at longitudes 0/120/240 deg, cups at 60/180/300 deg;
  - angled pulls tilt toward the mid-gap between adjacent fingers (the taut
    line must clear the finger bodies), i.e. toward longitude 60 deg;
  - rotational pulls act orthogonal to the gripper axis through the fruit
    center: a pivoting fruit sheds the stem moment, so the quasi-static
    failure mode is lateral sliding of the seals and pads.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import CalibrationDiverged, LpNumericalFailure, OffsetExceedsRadius, ParseError
from .simplexlp import solve_lp, solve_lp_batch

_Z = np.array([0.0, 0.0, 1.0])

FINGER_LONGITUDES_DEG = (0.0, 120.0, 240.0)
CUP_LONGITUDES_DEG = (60.0, 180.0, 300.0)
CUP_RING_MM = 21.0          # radial distance of cup centers from the gripper axis
CUP_BACKING_N = 60.0        # palm-seat compression bound behind each cup
PULL_TILT_LONGITUDE_DEG = 60.0
DEFAULT_CONE_SIDES = 8
WITNESS_TOL = 1e-6
LP_BATCH = 64                # pull LPs per solve_lp_batch call


class PullType(enum.Enum):
    AXIAL = "axial"
    ROTATIONAL = "rotational"


class ActuationMode(enum.Enum):
    SUCTION = "suction"
    FINGERS = "fingers"
    DUAL = "dual"


class ContactKind(enum.Enum):
    FINGER_PAD = "finger_pad"
    SUCTION_CUP = "suction_cup"


@dataclass(frozen=True)
class GraspScenario:
    """One grasp-strength test condition."""

    fruit_radius: float          # mm
    fruit_offset: float = 0.0    # mm, axial displacement of fruit from palm
    pull_angle: float = 0.0      # deg, gripper-to-fruit angle
    pull_type: PullType = PullType.AXIAL
    mode: ActuationMode = ActuationMode.DUAL

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fruit_radius, self.fruit_offset, self.pull_angle))):
            raise ValueError("fruit_radius, fruit_offset and pull_angle must be finite")
        if self.fruit_radius <= 0.0:
            raise ValueError("fruit_radius must be > 0")
        if self.fruit_offset < 0.0:
            raise ValueError("fruit_offset must be >= 0")
        if not 0.0 <= self.pull_angle <= 90.0:
            raise ValueError("pull_angle must be in [0, 90] deg")


@dataclass(frozen=True)
class Contact:
    """One contact on the fruit sphere, position relative to the center."""

    position: np.ndarray         # mm, |position| = fruit radius
    normal: np.ndarray           # unit, inward
    kind: ContactKind
    normal_capacity: float       # N (pads: clamp preload; cups: seat compression)
    tension_capacity: float      # N (pads: 0)
    mu: float                    # pads: Coulomb friction; cups: unused (0)
    cone_sides: int
    shear_capacity: float = 0.0  # N, cups only: shear_fraction * tension_capacity


@dataclass(frozen=True)
class ContactSet:
    fruit_radius: float
    contacts: tuple[Contact, ...]

    def __post_init__(self):
        for c in self.contacts:
            r = float(np.linalg.norm(c.position))
            if abs(r - self.fruit_radius) > 1e-6:
                raise ValueError("contact position not on the sphere surface")
            if abs(float(np.linalg.norm(c.normal)) - 1.0) > 1e-9:
                raise ValueError("contact normal not unit length")
            if c.kind is ContactKind.FINGER_PAD and c.tension_capacity != 0.0:
                raise ValueError("finger pads cannot carry tension")
            if c.kind is ContactKind.SUCTION_CUP and c.tension_capacity <= 0.0:
                raise ValueError("suction cups need positive tension capacity")


@dataclass(frozen=True)
class GraspModelParams:
    """Calibratable capacity parameters of the grasp model."""

    pad_force: float = 18.0       # N, finger normal capacity at final clamp
    mu_pad: float = 0.8           # effective pad friction (soft-pad effects folded in)
    suction_axial: float = 4.0    # N per cup
    shear_fraction: float = 0.5   # kappa, shear cap fraction of tension capacity

    def __post_init__(self):
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
        return cls(
            pad_force=float(d["pad_force_N"]),
            mu_pad=float(d["mu_pad"]),
            suction_axial=float(d["suction_axial_N"]),
            shear_fraction=float(d["shear_fraction"]),
        )


@dataclass(frozen=True)
class ReferenceRow:
    scenario: GraspScenario
    strength: float   # N
    stdev: float      # N
    authoritative: bool = True


@dataclass(frozen=True)
class ReferenceMeasurements:
    rows: tuple[ReferenceRow, ...]

    def __post_init__(self):
        for r in self.rows:
            if r.strength <= 0.0:
                raise ValueError("reference strengths must be positive")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of 3-vectors stacked on the last axis, in its operation
    order (so bit for bit the same) without its per-call overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _tangent_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangent basis with t1 along the steepest descent (-z projected)."""
    t1 = -_Z + float(np.dot(_Z, n)) * n
    if np.linalg.norm(t1) < 1e-12:
        t1 = np.array([1.0, 0.0, 0.0]) - n[0] * n
    t1 = _unit(t1)
    return t1, _cross(n, t1)


def build_contacts(
    scenario: GraspScenario,
    model: GraspModelParams,
    cone_sides: int = DEFAULT_CONE_SIDES,
    cup_indices: tuple[int, ...] = (0, 1, 2),
) -> ContactSet:
    """Place the contact set for a scenario.

    Fingers contact at 120-deg longitudes, a latitude asin(offset/radius)
    below the equator. Cups sit in a ring around the axis on the palm side;
    ``cup_indices`` restricts which cups are present (partial engagement).
    """
    r = scenario.fruit_radius
    if scenario.fruit_offset > r:
        raise OffsetExceedsRadius(
            f"fruit_offset {scenario.fruit_offset} mm exceeds radius {r} mm"
        )
    contacts: list[Contact] = []
    if scenario.mode in (ActuationMode.FINGERS, ActuationMode.DUAL):
        psi = math.asin(scenario.fruit_offset / r)
        for lon in FINGER_LONGITUDES_DEG:
            az = math.radians(lon)
            rhat = np.array([math.cos(az), math.sin(az), 0.0])
            pos = r * (math.cos(psi) * rhat - math.sin(psi) * _Z)
            contacts.append(
                Contact(
                    position=pos, normal=-_unit(pos), kind=ContactKind.FINGER_PAD,
                    normal_capacity=model.pad_force, tension_capacity=0.0,
                    mu=model.mu_pad, cone_sides=cone_sides,
                )
            )
    if scenario.mode in (ActuationMode.SUCTION, ActuationMode.DUAL):
        ring = min(CUP_RING_MM, 0.95 * r)
        beta = math.asin(ring / r)
        for i in cup_indices:
            az = math.radians(CUP_LONGITUDES_DEG[i])
            rhat = np.array([math.cos(az), math.sin(az), 0.0])
            pos = r * (math.sin(beta) * rhat - math.cos(beta) * _Z)
            contacts.append(
                Contact(
                    position=pos, normal=-_unit(pos), kind=ContactKind.SUCTION_CUP,
                    normal_capacity=CUP_BACKING_N,
                    tension_capacity=model.suction_axial,
                    mu=0.0, cone_sides=cone_sides,
                    shear_capacity=model.shear_fraction * model.suction_axial,
                )
            )
    return ContactSet(fruit_radius=r, contacts=tuple(contacts))


@dataclass(frozen=True)
class PullSolution:
    """LP result with the witness force assignment."""

    alpha: float                       # N, maximum resistible pull
    forces: tuple[np.ndarray, ...]     # per-contact force vectors, N
    pull_direction: np.ndarray
    application_point: np.ndarray


def _lp_columns(contacts: tuple[Contact, ...]):
    """Wrench columns (one row per contact variable) and capacity rows.

    Returns the nv x 6 columns (force over moment), the capacity row of
    every variable, the capacities and the contact index of every variable.
    """
    gens: list[np.ndarray] = []
    points: list[np.ndarray] = []
    cap_row: list[int] = []
    caps: list[float] = []
    owner: list[int] = []
    for ci, c in enumerate(contacts):
        k = c.cone_sides
        if c.kind is ContactKind.FINGER_PAD:
            t1, t2 = _tangent_frame(c.normal)
            ph = [2.0 * math.pi * j / k for j in range(k)]
            cos = np.array([math.cos(v) for v in ph])[:, None]
            sin = np.array([math.sin(v) for v in ph])[:, None]
            g = c.normal + c.mu * (cos * t1 + sin * t2)
            cap_row += [len(caps)] * k
            caps.append(c.normal_capacity)
        else:
            # tension, seat compression, then the shear polygon anchored to
            # the cup's own azimuth so the contact set stays exactly
            # threefold-symmetric after linearization
            anchor = math.atan2(c.position[1], c.position[0])
            ph = [anchor + 2.0 * math.pi * j / k for j in range(k)]
            shear = np.array([[math.cos(v), math.sin(v), 0.0] for v in ph])
            g = np.concatenate([[-_Z, _Z], shear])
            cap_row += [len(caps), len(caps) + 1] + [len(caps) + 2] * k
            caps += [c.tension_capacity, c.normal_capacity, c.shear_capacity]
        gens.append(g)
        points.append(np.broadcast_to(c.position, g.shape))
        owner += [ci] * len(g)
    g = np.concatenate(gens)
    cols = np.concatenate([g, _cross(np.concatenate(points), g)], axis=1)
    return cols, cap_row, caps, owner


def _pull_lp(contacts: tuple[Contact, ...], d: np.ndarray, app: np.ndarray):
    """The pull LP (c, a_eq, b_eq, a_ub, b_ub) and the contact index of every
    contact variable. The last variable is alpha; the first three rows of
    a_eq hold each variable's force direction."""
    cols, cap_row, caps, owner = _lp_columns(contacts)
    nv = len(cols) + 1
    a_eq = np.empty((6, nv))
    a_eq[:, :-1] = cols.T
    a_eq[:, -1] = np.concatenate([d, _cross(app, d)])
    a_ub = np.zeros((len(caps), nv))
    a_ub[cap_row, np.arange(nv - 1)] = 1.0
    c = np.zeros(nv)
    c[-1] = 1.0
    return (c, a_eq, np.zeros(6), a_ub, np.array(caps, dtype=float)), owner


def _pull_solution(contacts: ContactSet, d: np.ndarray, app: np.ndarray, res,
                   a_eq: np.ndarray, owner: list[int]) -> PullSolution:
    if res.status != "optimal":
        raise LpNumericalFailure(f"pull LP ended {res.status}")
    forces = [np.zeros(3) for _ in contacts.contacts]
    for j in np.flatnonzero(res.x[:-1] > 0.0):
        forces[owner[j]] += res.x[j] * a_eq[:3, j]
    return PullSolution(
        alpha=float(res.x[-1]), forces=tuple(forces),
        pull_direction=d, application_point=app,
    )


def _pull_inputs(pull_direction, application_point) -> tuple[np.ndarray, np.ndarray]:
    return (_unit(np.asarray(pull_direction, dtype=float)),
            np.asarray(application_point, dtype=float))


def solve_pull(
    contacts: ContactSet,
    pull_direction: np.ndarray,
    application_point: np.ndarray,
) -> PullSolution:
    """Maximum resistible pull along ``pull_direction`` with a force witness."""
    d, app = _pull_inputs(pull_direction, application_point)
    if not contacts.contacts:
        return PullSolution(0.0, (), d, app)
    lp, owner = _pull_lp(contacts.contacts, d, app)
    return _pull_solution(contacts, d, app, solve_lp(*lp), lp[1], owner)


def solve_pull_batch(
    problems: list[tuple[ContactSet, np.ndarray, np.ndarray]],
) -> list[PullSolution]:
    """``solve_pull`` for (contacts, pull_direction, application_point)
    problems whose contact sets share one layout (contact kinds and cone
    sides in order), solved as one ``solve_lp_batch`` call. Each solution
    is byte-identical to ``solve_pull`` on that problem alone."""
    if not problems or not problems[0][0].contacts:
        return [solve_pull(*p) for p in problems]
    stacked: list[np.ndarray] = []
    owners, pulls = [], []
    for i, (contacts, *pull) in enumerate(problems):
        d, app = _pull_inputs(*pull)
        lp, owner = _pull_lp(contacts.contacts, d, app)
        if not stacked:
            stacked = [np.empty((len(problems),) + f.shape) for f in lp]
        for s, f in zip(stacked, lp):
            s[i] = f
        owners.append(owner)
        pulls.append((d, app))
    results = solve_lp_batch(*stacked)
    return [_pull_solution(p[0], d, app, res, a_eq, owner)
            for p, (d, app), res, a_eq, owner in zip(problems, pulls, results, stacked[1], owners)]


def verify_witness(contacts: ContactSet, sol: PullSolution, tol: float = WITNESS_TOL) -> list[str]:
    """Re-check the witness against every constraint; return violations.

    Scale-aware tolerance: capacities and balance residuals are checked to
    ``tol`` in absolute N / N*mm terms relative to the problem scale. A
    non-finite alpha or force is reported on its own, since no comparison
    with NaN can fail.
    """
    if not math.isfinite(sol.alpha) or not all(np.isfinite(f).all() for f in sol.forces):
        return [f"non-finite alpha or contact force (alpha {sol.alpha})"]
    problems: list[str] = []
    scale = max(1.0, sol.alpha)
    f_tot = np.zeros(3)
    m_tot = np.zeros(3)
    for i, (c, f) in enumerate(zip(contacts.contacts, sol.forces)):
        f_tot += f
        m_tot += np.cross(c.position, f)
        if c.kind is ContactKind.FINGER_PAD:
            fn = float(np.dot(f, c.normal))
            ft = f - fn * c.normal
            if fn < -tol * scale:
                problems.append(f"contact {i}: pad normal force negative ({fn:.3e})")
            if fn > c.normal_capacity + tol * scale:
                problems.append(f"contact {i}: pad normal capacity exceeded ({fn:.6f})")
            # linearized pyramid is inside the exact cone, so the exact cone check is valid
            if np.linalg.norm(ft) > c.mu * max(fn, 0.0) + tol * scale:
                problems.append(f"contact {i}: pad friction cone violated")
        else:
            axial = float(np.dot(f, _Z))
            shear = f - axial * _Z
            if axial < -(c.tension_capacity + tol * scale):
                problems.append(f"contact {i}: cup tension capacity exceeded ({-axial:.6f})")
            if axial > c.normal_capacity + tol * scale:
                problems.append(f"contact {i}: cup seat compression exceeded ({axial:.6f})")
            if np.linalg.norm(shear) > c.shear_capacity + tol * scale:
                problems.append(f"contact {i}: cup shear capacity exceeded")
    pull = sol.alpha * sol.pull_direction
    resid_f = np.linalg.norm(f_tot + pull)
    resid_m = np.linalg.norm(m_tot + np.cross(sol.application_point, pull))
    if resid_f > tol * scale:
        problems.append(f"force balance residual {resid_f:.3e}")
    if resid_m > tol * scale * max(1.0, contacts.fruit_radius):
        problems.append(f"moment balance residual {resid_m:.3e}")
    return problems


def max_resistible_pull(
    contacts: ContactSet,
    pull_direction: np.ndarray,
    application_point: np.ndarray,
) -> float:
    """Maximum pull force (N) the contact set can balance."""
    return solve_pull(contacts, pull_direction, application_point).alpha


def pull_wrench_for(scenario: GraspScenario) -> tuple[np.ndarray, np.ndarray]:
    """Pull direction and application point for a scenario (fruit frame).

    Both pulls act through the fruit center. An angled axial pull tilts
    toward the mid-gap between fingers (longitude 60 deg); a rotational
    pull drags orthogonal to the axis toward longitude 0, the weakest
    direction of the cup ring (conservative convention).
    """
    if scenario.pull_type is PullType.ROTATIONAL:
        return np.array([1.0, 0.0, 0.0]), np.zeros(3)
    w = math.radians(scenario.pull_angle)
    az = math.radians(PULL_TILT_LONGITUDE_DEG)
    d = np.array([math.sin(w) * math.cos(az), math.sin(w) * math.sin(az), math.cos(w)])
    return d, np.zeros(3)


def predict_strength(
    scenario: GraspScenario,
    model: GraspModelParams,
    cone_sides: int = DEFAULT_CONE_SIDES,
    cup_indices: tuple[int, ...] = (0, 1, 2),
) -> float:
    """Predicted grasp strength (N) for a scenario."""
    contacts = build_contacts(scenario, model, cone_sides, cup_indices)
    d, app = pull_wrench_for(scenario)
    return max_resistible_pull(contacts, d, app)


def predict_strengths(
    queries: list[tuple[GraspScenario, tuple[int, ...]]],
    model: GraspModelParams,
) -> list[float]:
    """``predict_strength`` (default cone sides) for many (scenario,
    cup_indices) queries.

    Queries whose contact sets share a layout are solved together, at most
    ``LP_BATCH`` per batch, and each batch's contact sets and LPs are built
    only when it is solved. Results are byte-identical to
    ``predict_strength`` one query at a time.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (scenario, cups) in enumerate(queries):
        uses_cups = scenario.mode is not ActuationMode.FINGERS
        groups.setdefault((scenario.mode, len(cups) if uses_cups else 0), []).append(i)
    out = [0.0] * len(queries)
    for members in groups.values():
        for start in range(0, len(members), LP_BATCH):
            chunk = members[start:start + LP_BATCH]
            problems = []
            for i in chunk:
                scenario, cups = queries[i]
                contacts = build_contacts(scenario, model, DEFAULT_CONE_SIDES, cups)
                problems.append((contacts, *pull_wrench_for(scenario)))
            for i, sol in zip(chunk, solve_pull_batch(problems)):
                out[i] = sol.alpha
    return out


# ---------------------------------------------------------------------------
# reference data and calibration
# ---------------------------------------------------------------------------

REFERENCE_CSV_HEADER = "mode,offset_mm,angle_deg,pull_type,strength_N,stdev_N,source"


def reference_from_csv(text: str, fruit_radius: float = 37.5) -> ReferenceMeasurements:
    """Parse the reference measurement CSV (see REFERENCE_CSV_HEADER)."""
    reader = csv.DictReader(io.StringIO(text))
    rows: list[ReferenceRow] = []
    for i, rec in enumerate(reader, start=2):
        try:
            scenario = GraspScenario(
                fruit_radius=fruit_radius,
                fruit_offset=float(rec["offset_mm"]),
                pull_angle=min(float(rec["angle_deg"]), 90.0),
                pull_type=PullType(rec["pull_type"]),
                mode=ActuationMode(rec["mode"]),
            )
            rows.append(
                ReferenceRow(
                    scenario=scenario,
                    strength=float(rec["strength_N"]),
                    stdev=float(rec["stdev_N"]),
                    authoritative=rec.get("source", "authoritative") == "authoritative",
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad reference row: {exc}", row=i) from exc
    if not rows:
        raise ParseError("reference CSV has no data rows")
    return ReferenceMeasurements(rows=tuple(rows))


@dataclass(frozen=True)
class ResidualRow:
    scenario: GraspScenario
    measured: float
    predicted: float
    rel_error: float


@dataclass(frozen=True)
class CalibrationResult:
    params: GraspModelParams
    residuals: tuple[ResidualRow, ...]
    mean_sq_rel_error: float

    @property
    def mean_abs_rel_error(self) -> float:
        return float(np.mean([abs(r.rel_error) for r in self.residuals]))


def calibrate(
    reference: ReferenceMeasurements,
    initial: GraspModelParams = GraspModelParams(),
    authoritative_only: bool = False,
    max_iter: int = 400,
) -> CalibrationResult:
    """Fit the four model parameters to reference strengths.

    Nelder-Mead simplex search minimizing the mean squared relative error of
    predict_strength across all reference rows; deterministic for a given
    initial point. Pass ``authoritative_only=True`` to drop plot-read rows
    (marked approximate in the dataset) from the loss.
    """
    if not reference.rows:
        raise ValueError("reference measurements must be nonempty")
    rows = [r for r in reference.rows if r.authoritative or not authoritative_only]
    if not rows:
        raise ValueError("no rows left to calibrate against")

    def unpack(x) -> GraspModelParams | None:
        pad, mu, suc, kap = (float(v) for v in x)
        if pad <= 0 or mu <= 0 or suc <= 0 or not 0.0 < kap <= 1.0:
            return None
        return GraspModelParams(pad, mu, suc, kap)

    def objective(x) -> float:
        params = unpack(x)
        if params is None:
            return 1e9
        err = 0.0
        for row in rows:
            pred = predict_strength(row.scenario, params)
            err += ((pred - row.strength) / row.strength) ** 2
        return err / len(rows)

    x0 = np.array([initial.pad_force, initial.mu_pad, initial.suction_axial,
                   initial.shear_fraction])
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxiter": max_iter, "xatol": 1e-5, "fatol": 1e-8})
    fitted = unpack(res.x)
    if fitted is None:
        raise CalibrationDiverged("search left the admissible parameter region")

    residuals = []
    for row in reference.rows:
        pred = predict_strength(row.scenario, fitted)
        residuals.append(
            ResidualRow(
                scenario=row.scenario, measured=row.strength, predicted=pred,
                rel_error=(pred - row.strength) / row.strength,
            )
        )
    fitted_rows = [r for r in residuals
                   if any(r.scenario == row.scenario for row in rows)]
    mean_abs = float(np.mean([abs(r.rel_error) for r in fitted_rows]))
    if mean_abs >= 0.5:
        raise CalibrationDiverged(
            f"mean relative error {mean_abs:.1%} >= 50% after {max_iter} iterations"
        )
    return CalibrationResult(
        params=fitted, residuals=tuple(residuals), mean_sq_rel_error=float(res.fun)
    )


def calibration_to_json(result: CalibrationResult) -> str:
    doc = {
        "params": result.params.to_dict(),
        "mean_sq_rel_error": result.mean_sq_rel_error,
        "residuals": [
            {
                "mode": r.scenario.mode.value,
                "offset_mm": r.scenario.fruit_offset,
                "angle_deg": r.scenario.pull_angle,
                "pull_type": r.scenario.pull_type.value,
                "measured_N": r.measured,
                "predicted_N": r.predicted,
                "rel_error": r.rel_error,
            }
            for r in result.residuals
        ],
    }
    return json.dumps(doc, indent=2)
