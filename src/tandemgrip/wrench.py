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
from itertools import compress

import numpy as np

from .errors import (
    CalibrationDiverged,
    LpNumericalFailure,
    OffsetExceedsRadius,
    ParseError,
    require_finite,
)
from .simplexlp import solve_from_basis, solve_lp, solve_lp_batch

_Z = np.array([0.0, 0.0, 1.0])

FINGER_LONGITUDES_DEG = (0.0, 120.0, 240.0)
CUP_LONGITUDES_DEG = (60.0, 180.0, 300.0)
CUP_RING_MM = 21.0          # radial distance of cup centers from the gripper axis
CUP_BACKING_N = 60.0        # palm-seat compression bound behind each cup
PULL_TILT_LONGITUDE_DEG = 60.0
DEFAULT_CONE_SIDES = 8
WITNESS_TOL = 1e-6
LP_BATCH = 64                # pull LPs per solve_lp_batch call
# fruit radii the pull LP answers soundly; far outside, its moments overflow
# or its answer is lost to rounding
FRUIT_RADIUS_RANGE_MM = (1.0, 1000.0)


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
        require_finite(fruit_radius=self.fruit_radius, fruit_offset=self.fruit_offset,
                       pull_angle=self.pull_angle)
        lo, hi = FRUIT_RADIUS_RANGE_MM
        if not lo <= self.fruit_radius <= hi:
            raise ValueError(f"fruit_radius must be in [{lo:g}, {hi:g}] mm")
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

    def __post_init__(self):
        require_finite(strength=self.strength, stdev=self.stdev)


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


class _PullLp:
    """The pull LP (c, a_eq, b_eq, a_ub, b_ub) of one contact layout and
    pull, built in two steps. The last variable is alpha; the first three
    rows of a_eq hold each variable's force direction.

    The geometry step (the constructor) takes only the contact positions,
    normals, kinds and cone sides and the pull: every suction-cup column,
    each pad generator's tangent pattern T = cos * t1 + sin * t2, the
    capacity rows (a_ub), c, b_eq and the pull column. The parameter step
    (``fill``) writes the rest in place: the pad generators normal + mu * T
    with their moments, and the capacities b_ub. Both steps use the same
    elementwise operations, in the same order, as one build from scratch, so
    a refilled LP is byte-identical to a new one.
    """

    def __init__(self, contacts: tuple[Contact, ...], d: np.ndarray, app: np.ndarray):
        self.kinds = tuple(c.kind for c in contacts)
        self.cap_row: list[int] = []   # capacity row of every contact variable
        self.owner: list[int] = []     # contact index of every contact variable
        pattern, cup_gens = [], []
        n_caps = 0
        for ci, c in enumerate(contacts):
            k = c.cone_sides
            if c.kind is ContactKind.FINGER_PAD:
                t1, t2 = _tangent_frame(c.normal)
                ph = [2.0 * math.pi * j / k for j in range(k)]
                cos = np.array([math.cos(v) for v in ph])[:, None]
                sin = np.array([math.sin(v) for v in ph])[:, None]
                pattern.append(cos * t1 + sin * t2)
                self.cap_row += [n_caps] * k
                n_caps += 1
            else:
                # tension, seat compression, then the shear polygon anchored to
                # the cup's own azimuth so the contact set stays exactly
                # threefold-symmetric after linearization
                anchor = math.atan2(c.position[1], c.position[0])
                ph = [anchor + 2.0 * math.pi * j / k for j in range(k)]
                shear = np.array([[math.cos(v), math.sin(v), 0.0] for v in ph])
                cup_gens.append(np.concatenate([[-_Z, _Z], shear]))
                self.cap_row += [n_caps, n_caps + 1] + [n_caps + 2] * k
                n_caps += 3
            self.owner += [ci] * (len(self.cap_row) - len(self.owner))
        owner = np.array(self.owner)
        is_pad = np.array([kind is ContactKind.FINGER_PAD for kind in self.kinds])[owner]
        self.pads = np.flatnonzero(is_pad)     # variables of the pad generators
        self.pad_owner = owner[self.pads]      # contact index of each of them
        positions = np.array([c.position for c in contacts])
        nv = len(self.owner) + 1
        a_eq = np.empty((6, nv))
        if pattern:
            self._pattern = np.concatenate(pattern)
            self._normals = np.array([c.normal for c in contacts])[self.pad_owner]
            self._pad_points = positions[self.pad_owner]
        # the cup generators and the pull, with their moments in one step
        cups = np.flatnonzero(~is_pad)
        g = np.concatenate([*cup_gens, d[None]])
        a_eq[:3, cups] = g[:-1].T
        a_eq[:3, -1] = d
        a_eq[3:, np.append(cups, nv - 1)] = _cross(
            np.concatenate([positions[owner[cups]], app[None]]), g).T
        a_ub = np.zeros((n_caps, nv))
        a_ub[self.cap_row, np.arange(nv - 1)] = 1.0
        c = np.zeros(nv)
        c[-1] = 1.0
        self.lp = (c, a_eq, np.zeros(6), a_ub, np.empty(n_caps))

    def fill(self, mu, caps) -> tuple:
        """The parameter step: pad friction ``mu`` (one value, or a column of
        one per pad generator) and the capacities, in capacity-row order.
        Returns the LP, whose arrays the next fill reuses."""
        a_eq = self.lp[1]
        if len(self.pads):
            g = self._normals + mu * self._pattern
            a_eq[:3, self.pads] = g.T
            a_eq[3:, self.pads] = _cross(self._pad_points, g).T
        self.lp[4][:] = caps
        return self.lp

    def refresh(self, model: GraspModelParams) -> tuple:
        """``fill`` from grasp-model parameters, with the capacities
        ``build_contacts`` gives each contact kind."""
        pad = (model.pad_force,)
        cup = (model.suction_axial, CUP_BACKING_N, model.shear_fraction * model.suction_axial)
        return self.fill(model.mu_pad, [cap for kind in self.kinds
                                        for cap in (pad if kind is ContactKind.FINGER_PAD
                                                    else cup)])


def _pull_lp(contacts: tuple[Contact, ...], d: np.ndarray, app: np.ndarray) -> _PullLp:
    """The pull LP of a contact set, with each contact's own friction and
    capacities."""
    lp = _PullLp(contacts, d, app)
    caps = []
    for c in contacts:
        caps += ([c.normal_capacity] if c.kind is ContactKind.FINGER_PAD
                 else [c.tension_capacity, c.normal_capacity, c.shear_capacity])
    lp.fill(np.array([c.mu for c in contacts], dtype=float)[lp.pad_owner, None], caps)
    return lp


def _lp_columns(contacts: tuple[Contact, ...]):
    """Wrench columns (one row per contact variable) and capacity rows.

    Returns the nv x 6 columns (force over moment), the capacity row of
    every variable, the capacities and the contact index of every variable,
    as ``_pull_lp`` builds them.
    """
    lp = _pull_lp(contacts, _Z, np.zeros(3))
    return lp.lp[1][:, :-1].T, lp.cap_row, lp.lp[4].tolist(), lp.owner


def _alpha(res) -> float:
    """The maximum resistible pull of a solved pull LP."""
    if res.status != "optimal":
        raise LpNumericalFailure(f"pull LP ended {res.status}")
    return float(res.x[-1])


def _pull_solution(contacts: ContactSet, d: np.ndarray, app: np.ndarray, res,
                   a_eq: np.ndarray, owner: list[int]) -> PullSolution:
    alpha = _alpha(res)
    forces = [np.zeros(3) for _ in contacts.contacts]
    for j in np.flatnonzero(res.x[:-1] > 0.0):
        forces[owner[j]] += res.x[j] * a_eq[:3, j]
    return PullSolution(
        alpha=alpha, forces=tuple(forces),
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
    lp = _pull_lp(contacts.contacts, d, app)
    return _pull_solution(contacts, d, app, solve_lp(*lp.lp), lp.lp[1], lp.owner)


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


def _strength_geometry(scenario: GraspScenario, model: GraspModelParams,
                       cup_indices: tuple[int, ...] = (0, 1, 2)) -> _PullLp | None:
    """The geometry step of a strength query's pull LP, or None when no
    contact is present (strength 0). ``model`` only has to be one that
    ``build_contacts`` accepts; ``refresh`` sets the parameters."""
    contacts = build_contacts(scenario, model, DEFAULT_CONE_SIDES, cup_indices)
    if not contacts.contacts:
        return None
    return _PullLp(contacts.contacts, *_pull_inputs(*pull_wrench_for(scenario)))


def _strength_lp(scenario: GraspScenario, model: GraspModelParams,
                 cup_indices: tuple[int, ...] = (0, 1, 2)):
    """The pull LP (c, a_eq, b_eq, a_ub, b_ub) of a strength query, or None
    when no contact is present (strength 0)."""
    lp = _strength_geometry(scenario, model, cup_indices)
    return None if lp is None else lp.refresh(model)


def predict_strength(
    scenario: GraspScenario,
    model: GraspModelParams,
    cup_indices: tuple[int, ...] = (0, 1, 2),
) -> float:
    """Predicted grasp strength (N) for a scenario."""
    contacts = build_contacts(scenario, model, DEFAULT_CONE_SIDES, cup_indices)
    d, app = pull_wrench_for(scenario)
    return max_resistible_pull(contacts, d, app)


def predict_strengths(
    queries: list[tuple[GraspScenario, tuple[int, ...]]],
    model: GraspModelParams,
) -> list[float]:
    """``predict_strength`` for many (scenario, cup_indices) queries.

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
            lps = [_strength_lp(queries[i][0], model, queries[i][1]) for i in chunk]
            if lps[0] is None:   # a layout with no contact holds nothing
                continue
            for i, res in zip(chunk, solve_lp_batch(*map(np.stack, zip(*lps)))):
                out[i] = _alpha(res)
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


@dataclass(frozen=True)
class SearchResult:
    x: np.ndarray   # best vertex of the final simplex
    fun: float      # smallest objective value in the final simplex
    nit: int        # iterations, counted as scipy counts them


def minimize(fun, x0, max_iter: int, xatol: float, fatol: float) -> SearchResult:
    """Nelder-Mead simplex search (Nelder & Mead, Comput. J. 7(4), 1965).

    The same search, step for step and operation for operation, as scipy's
    ``minimize(fun, x0, method="Nelder-Mead", options={"maxiter": max_iter,
    "xatol": xatol, "fatol": fatol})`` (checked against scipy 1.17.1), so
    results match it byte for byte: initial steps of 5% (0.00025 for a zero
    coordinate), reflection 1, expansion 2, contractions and shrink 1/2, and
    no cap on evaluations. ``fun`` takes a copy of a float64 point and returns
    a float. It stops when every vertex is within ``xatol`` of the best one
    and every value within ``fatol`` of the best value, or after ``max_iter``
    iterations.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([fun(np.copy(v)) for v in sim], dtype=float)
    # scipy sorts the first simplex twice; np.argsort is not a stable sort,
    # so the second pass can still reorder vertices with equal values
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    nit = 1
    while nit < max_iter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = fun(np.copy(xr))
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = fun(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = fun(np.copy(xc))
                keep = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = fun(np.copy(xc))
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = fun(np.copy(sim[j]))
        nit += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return SearchResult(x=sim[0], fun=np.min(fsim), nit=nit)


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

    A row's geometry is fixed; between two evaluations only ``mu_pad`` and
    the capacities move. So each fitted row's contact set and pull LP are
    built once, at the row's first evaluation, and every later evaluation
    rewrites only the pad columns and the capacities of that LP in place.
    The LP first tries the optimal basis of the row's previous solve
    (``solve_from_basis``) and solves cold only when it no longer holds. The
    residuals are cold ``predict_strength`` values at the fitted point, and
    the reported error is the loss over the fitted rows' residuals.
    """
    if not reference.rows:
        raise ValueError("reference measurements must be nonempty")
    fit = [r.authoritative or not authoritative_only for r in reference.rows]
    rows = list(compress(reference.rows, fit))
    if not rows:
        raise ValueError("no rows left to calibrate against")

    def unpack(x) -> GraspModelParams | None:
        pad, mu, suc, kap = (float(v) for v in x)
        if pad <= 0 or mu <= 0 or suc <= 0 or not 0.0 < kap <= 1.0:
            return None
        return GraspModelParams(pad, mu, suc, kap)

    # row index -> the row's pull LP and the basis of its last cold solve
    row_lps: dict[int, tuple[_PullLp, tuple[int, ...] | None]] = {}

    def warm_strength(i: int, params: GraspModelParams) -> float:
        if i not in row_lps:
            row_lps[i] = _strength_geometry(rows[i].scenario, params), None
        pull_lp, basis = row_lps[i]
        lp = pull_lp.refresh(params)
        res = None if basis is None else solve_from_basis(*lp, basis)
        if res is None:
            res = solve_lp(*lp)
            row_lps[i] = pull_lp, res.basis
        return _alpha(res)

    def loss(preds) -> float:
        err = 0.0
        for pred, row in zip(preds, rows):
            err += ((pred - row.strength) / row.strength) ** 2
        return err / len(rows)

    def objective(x) -> float:
        params = unpack(x)
        if params is None:
            return 1e9
        return loss([warm_strength(i, params) for i in range(len(rows))])

    x0 = np.array([initial.pad_force, initial.mu_pad, initial.suction_axial,
                   initial.shear_fraction])
    res = minimize(objective, x0, max_iter=max_iter, xatol=1e-5, fatol=1e-8)
    fitted = unpack(res.x)
    if fitted is None:
        raise CalibrationDiverged("search left the admissible parameter region")

    residuals = []
    for row in reference.rows:
        pred = predict_strength(row.scenario, fitted)
        residuals.append(ResidualRow(scenario=row.scenario, measured=row.strength,
                                     predicted=pred,
                                     rel_error=(pred - row.strength) / row.strength))
    fitted_rows = list(compress(residuals, fit))
    mean_abs = float(np.mean([abs(r.rel_error) for r in fitted_rows]))
    if mean_abs >= 0.5:
        raise CalibrationDiverged(
            f"mean relative error {mean_abs:.1%} >= 50% after {max_iter} iterations"
        )
    return CalibrationResult(
        params=fitted, residuals=tuple(residuals),
        mean_sq_rel_error=loss([r.predicted for r in fitted_rows]),
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
