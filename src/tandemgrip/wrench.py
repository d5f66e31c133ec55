"""Grasp strength prediction via contact-wrench linear programming.

A grasped fruit is modeled as a rigid sphere held by up to three finger-pad
contacts (point contacts with linearized Coulomb friction pyramids) and
three suction-cup contacts. The bellows cups act along the gripper axis:
tension pulls the fruit toward the palm, a palm-seat reaction bounds
compression, and seal shear acts in the palm plane with a constant cap of
shear_fraction * tension_capacity per cup.

The maximum resistible pull is the largest alpha such that contact forces
inside their capacity sets balance the wrench of alpha * pull_direction.
Every pull acts through the fruit center. Positions are expressed in a frame
at the fruit center with +z along the gripper axis pointing away from the
palm, so moments are taken about the origin and the pull has none.

Conventions fixed by the test geometry:
  - finger contacts at longitudes 0/120/240 deg, cups at 60/180/300 deg;
  - angled pulls tilt toward the mid-gap between adjacent fingers (the taut
    line must clear the finger bodies), i.e. toward longitude 60 deg;
  - rotational pulls act orthogonal to the gripper axis through the fruit
    center: a pivoting fruit sheds the stem moment, so the quasi-static
    failure mode is lateral sliding of the seals and pads.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .config import GraspModelParams
from .errors import (
    CalibrationDiverged,
    LpNumericalFailure,
    OffsetExceedsRadius,
    ParseError,
    csv_records,
    require_finite,
    require_int,
)
from .simplexlp import WarmStack, solve_lp, solve_lp_batch
from .vectors import FRUIT_RADIUS_RANGE_MM, _cross, _dot, _norm, _unit

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
        require_finite(fruit_radius=self.fruit_radius, fruit_offset=self.fruit_offset,
                       pull_angle=self.pull_angle)
        lo, hi = FRUIT_RADIUS_RANGE_MM
        if not lo <= self.fruit_radius <= hi:
            raise ValueError(f"fruit_radius must be in [{lo:g}, {hi:g}] mm")
        if self.fruit_offset < 0.0:
            raise ValueError("fruit_offset must be >= 0")
        if not 0.0 <= self.pull_angle <= 90.0:
            raise ValueError("pull_angle must be in [0, 90] deg")
        if not isinstance(self.pull_type, PullType):
            raise ValueError(f"pull_type must be a PullType, got {self.pull_type!r}")
        if not isinstance(self.mode, ActuationMode):
            raise ValueError(f"mode must be an ActuationMode, got {self.mode!r}")


@dataclass(frozen=True)
class Contact:
    """One contact on the fruit sphere, position relative to the center. It
    faces the center: its inward unit normal is -position / |position|."""

    position: np.ndarray         # mm, |position| = fruit radius
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
        require_finite(fruit_radius=self.fruit_radius)
        for c in self.contacts:
            x, y, z = (float(v) for v in c.position)
            require_finite(position_x=x, position_y=y, position_z=z, mu=c.mu,
                           normal_capacity=c.normal_capacity, tension_capacity=c.tension_capacity,
                           shear_capacity=c.shear_capacity)
            if min(c.normal_capacity, c.tension_capacity, c.shear_capacity, c.mu) < 0.0:
                raise ValueError("contact capacities and mu must be >= 0")
            if not isinstance(c.kind, ContactKind):
                raise ValueError(f"contact kind must be a ContactKind, got {c.kind!r}")
            require_int(3, cone_sides=c.cone_sides)
            if not abs(math.hypot(x, y, z) - self.fruit_radius) <= 1e-6:   # NaN fails
                raise ValueError("contact position not on the sphere surface")
            if c.kind is ContactKind.FINGER_PAD and c.tension_capacity != 0.0:
                raise ValueError("finger pads cannot carry tension")
            if c.kind is ContactKind.SUCTION_CUP and c.tension_capacity <= 0.0:
                raise ValueError("suction cups need positive tension capacity")


@dataclass(frozen=True)
class ReferenceRow:
    scenario: GraspScenario
    strength: float   # N
    stdev: float      # N
    authoritative: bool = True

    def __post_init__(self):
        require_finite(strength=self.strength, stdev=self.stdev)
        if self.strength <= 0.0:
            raise ValueError(f"strength must be > 0, got {self.strength!r}")
        if self.stdev < 0.0:
            raise ValueError(f"stdev must be >= 0, got {self.stdev!r}")


@dataclass(frozen=True)
class ReferenceMeasurements:
    rows: tuple[ReferenceRow, ...]


def _tangent_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangent basis, t1 along the steepest descent (-z projected), of unit normals
    stacked on the last axis; n's z is 0*n0 + 0*n1 + n2, so -0.0 only if each term is."""
    t1 = -_Z + _dot(_Z, n)[..., None] * n
    flat = _norm(t1)[..., None] < 1e-12   # a normal along the axis: project +x
    t1 = _unit(np.where(flat, np.array([1.0, 0.0, 0.0]) - n[..., :1] * n, t1))
    return t1, _cross(n, t1)


def _place(scenarios: list[GraspScenario], cup_indices: list[tuple[int, ...]]):
    """Contact positions (B x nc x 3) of B scenarios of one mode whose cup sets
    have one size, and the kind of each contact. Each position is a unit vector
    scaled by its radius, so it lies on its sphere to rounding.

    Fingers contact at 120-deg longitudes, a latitude asin(offset/radius)
    below the equator. Cups sit in a ring around the axis on the palm side;
    ``cup_indices`` restricts which cups are present (partial engagement): each
    set distinct ints in 0..2 and no bool, checked once for the stack; fingers
    place none.
    """
    for s in scenarios:
        if s.fruit_offset > s.fruit_radius:
            raise OffsetExceedsRadius(
                f"fruit_offset {s.fruit_offset} mm exceeds radius {s.fruit_radius} mm")
    mode, nb = scenarios[0].mode, len(scenarios)
    radii = [s.fruit_radius for s in scenarios]

    def ring(coefs, longitudes, index):
        # a * rhat - b * z for each scenario's (a, b); rhat by longitude index
        rhat = np.array([[math.cos(v), math.sin(v), 0.0] for v in map(math.radians, longitudes)])
        coefs = np.array(coefs)[:, :, None, None]
        return coefs[:, 0] * rhat[index] - coefs[:, 1] * _Z

    parts, kinds = [], []
    if mode in (ActuationMode.FINGERS, ActuationMode.DUAL):
        psi = [math.asin(s.fruit_offset / s.fruit_radius) for s in scenarios]
        parts.append(ring([(math.cos(v), math.sin(v)) for v in psi],
                          FINGER_LONGITUDES_DEG, slice(None)))
        kinds += [ContactKind.FINGER_PAD] * len(FINGER_LONGITUDES_DEG)
    if mode in (ActuationMode.SUCTION, ActuationMode.DUAL):
        beta = [math.asin(min(CUP_RING_MM, 0.95 * r) / r) for r in radii]
        cups = np.array(cup_indices).reshape(nb, -1)
        try:   # numpy reads a bool among ints as an int, so look at each index itself
            bools = not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(cup_indices)))
        except TypeError:   # a query whose cups are no sequence
            bools = True
        if cups.size and (bools or not (
                cups.dtype.kind in "iu" and 0 <= cups.min() and cups.max() <= 2
                and (cups[:, :, None] == cups[:, None, :]).sum() == cups.size)):
            raise ValueError(f"cup indices must be distinct ints in 0..2, got {cup_indices!r}")
        cups = cups.astype(int)
        parts.append(ring([(math.sin(v), math.cos(v)) for v in beta], CUP_LONGITUDES_DEG, cups))
        kinds += [ContactKind.SUCTION_CUP] * cups.shape[1]
    positions = np.array(radii)[:, None, None] * np.concatenate(parts, axis=1)
    return positions, tuple(kinds)


def build_contacts(
    scenario: GraspScenario,
    model: GraspModelParams,
    cup_indices: tuple[int, ...] = (0, 1, 2),
) -> ContactSet:
    """Place the contact set for a scenario (see ``_place``), with
    ``DEFAULT_CONE_SIDES``-sided friction pyramids and shear polygons."""
    positions, kinds = _place([scenario], [cup_indices])
    return ContactSet(fruit_radius=scenario.fruit_radius, contacts=tuple(
        Contact(position=p, kind=kind, cone_sides=DEFAULT_CONE_SIDES,
                **(dict(normal_capacity=model.pad_force, tension_capacity=0.0, mu=model.mu_pad)
                   if kind is ContactKind.FINGER_PAD else
                   dict(normal_capacity=CUP_BACKING_N, tension_capacity=model.suction_axial,
                        mu=0.0, shear_capacity=model.shear_fraction * model.suction_axial)))
        for p, kind in zip(positions[0], kinds)))


@dataclass(frozen=True)
class PullSolution:
    """LP result with the witness force assignment."""

    alpha: float                       # N, maximum resistible pull
    forces: tuple[np.ndarray, ...]     # per-contact force vectors, N
    pull_direction: np.ndarray


class _PullLp:
    """The pull LPs (c, a_eq, b_eq, a_ub, b_ub, each with a leading batch
    axis) of B contact sets of one layout, built in two steps. The last
    variable is alpha; the first three rows of a_eq hold each variable's
    force direction.

    The geometry step (the constructor) takes the contact positions (B x nc
    x 3), each facing the center (its inward normal is -_unit(position)), the
    layout's kinds and cone sides and the unit pulls (B x 3), which act
    through the fruit center: every suction-cup column, each pad generator's
    tangent pattern T = cos * t1 + sin * t2, a_ub, c, b_eq and the pull column.
    The parameter step (``fill``) writes the rest in place: the pad generators
    normal + mu * T with their moments, and the capacities b_ub. Both use one
    build's elementwise operations in its order, so every LP of a stack or a
    refill is byte-identical to a new build of it alone.
    """

    def __init__(self, positions: np.ndarray, kinds: tuple[ContactKind, ...],
                 sides: tuple[int, ...], d: np.ndarray):
        # of every capacity row: 0 pad, then a cup's 1 tension, 2 seat and 3 shear
        self.cap_kind = np.array([j for kind in kinds for j in (
            [0] if kind is ContactKind.FINGER_PAD else [1, 2, 3])], int)
        self.cap_row: list[int] = []   # capacity row of every contact variable
        self.owner: list[int] = []     # contact index of every contact variable
        phase: list[float] = []        # of every variable: 2 pi j / k for generator j of k
        tension: list[int] = []        # the tension variable of every cup
        n_caps, nb = 0, len(d)
        for ci, (kind, k) in enumerate(zip(kinds, sides)):
            if kind is ContactKind.FINGER_PAD:
                self.cap_row += [n_caps] * k
                n_caps += 1
            else:
                # tension, seat compression, then the shear polygon
                tension.append(len(self.cap_row))
                self.cap_row += [n_caps, n_caps + 1] + [n_caps + 2] * k
                n_caps += 3
                phase += [0.0, 0.0]
            phase += [2.0 * math.pi * j / k for j in range(k)]
            self.owner += [ci] * (len(self.cap_row) - len(self.owner))
        owner = np.array(self.owner)
        is_pad = np.array([kind is ContactKind.FINGER_PAD for kind in kinds])[owner]
        self.pads = np.flatnonzero(is_pad)     # variables of the pad generators
        self.pad_owner = owner[self.pads]      # contact index of each of them
        nv = len(self.owner) + 1
        a_eq = np.empty((nb, 6, nv))
        if len(self.pads):
            normals = -_unit(positions)[:, self.pad_owner]
            t1, t2 = _tangent_frame(normals)
            cos, sin = (np.array([f(phase[j]) for j in self.pads])[:, None]
                        for f in (math.cos, math.sin))
            # B x 5 x pad generators, rows x y z x y: a turn of them is a slice
            self._pattern = (cos * t1 + sin * t2).transpose(0, 2, 1)[:, [0, 1, 2, 0, 1]]
            self._normals = normals.transpose(0, 2, 1)[:, [0, 1, 2, 0, 1]]
            p = positions[:, self.pad_owner].transpose(0, 2, 1)
            self._p1, self._p2 = p[:, [1, 2, 0]], p[:, [2, 0, 1]]   # _cross's first operands
            # the pad columns, as a slice where contiguous (_place puts the pads first)
            first, last = self.pads[0], self.pads[-1]
            self._cols = slice(first, last + 1) if last - first < len(self.pads) else self.pads
        # the cup generators and the pull, with their moments in one step (the
        # pull's about an origin row: _cross(0, d) holds signed zeros); the
        # shear polygon is anchored to the cup's own azimuth so the contact set
        # stays exactly threefold-symmetric after linearization
        cols = np.append(np.flatnonzero(~is_pad), nv - 1)
        points = np.concatenate([positions[:, owner[cols[:-1]]], np.zeros((nb, 1, 3))], axis=1)
        anchor = map(math.atan2, *(points[:, :-1, i].ravel().tolist() for i in (1, 0)))
        ph = (np.reshape(list(anchor), (nb, -1)) + np.array(phase)[cols[:-1]]).ravel().tolist()
        g = np.zeros((nb, nv, 3))
        g[:, cols[:-1], 0] = np.reshape(list(map(math.cos, ph)), (nb, -1))
        g[:, cols[:-1], 1] = np.reshape(list(map(math.sin, ph)), (nb, -1))
        g[:, tension], g[:, [t + 1 for t in tension]], g[:, -1] = -_Z, _Z, d
        g = g[:, cols]
        a_eq[:, :, cols] = np.concatenate([g, _cross(points, g)], axis=2).transpose(0, 2, 1)
        a_ub = np.zeros((n_caps, nv))
        a_ub[self.cap_row, np.arange(nv - 1)] = 1.0
        c = np.zeros(nv)
        c[-1] = 1.0
        self.lp = (np.tile(c, (nb, 1)), a_eq, np.zeros((nb, 6)), np.tile(a_ub, (nb, 1, 1)),
                   np.empty((nb, n_caps)))

    def fill(self, mu, caps) -> tuple:
        """The parameter step: pad friction ``mu`` (one value, or one per pad
        generator) and the capacities, in capacity-row order, alike for the whole
        stack. Returns the stack, whose arrays the next fill reuses."""
        a_eq = self.lp[1]
        if len(self.pads):
            g = self._normals + mu * self._pattern
            a_eq[:, :3, self._cols] = g[:, :3]
            a_eq[:, 3:, self._cols] = self._p1 * g[:, 2:] - self._p2 * g[:, 1:4]
        self.lp[4][:] = caps
        return self.lp

    def refresh(self, model: GraspModelParams) -> tuple:
        """``fill`` from grasp-model parameters, with the capacities
        ``build_contacts`` gives each contact kind."""
        caps = np.array([model.pad_force, model.suction_axial, CUP_BACKING_N,
                         model.shear_fraction * model.suction_axial])
        return self.fill(model.mu_pad, caps[self.cap_kind])


def _pull_lp(contacts: tuple[Contact, ...], d: np.ndarray) -> _PullLp:
    """The pull LP of a contact set (a stack of one) along the unit pull
    ``d``, with each contact's own friction and capacities."""
    lp = _PullLp(np.array([c.position for c in contacts], dtype=float)[None],
                 tuple(c.kind for c in contacts), tuple(c.cone_sides for c in contacts), d[None])
    caps = []
    for c in contacts:
        caps += ([c.normal_capacity] if c.kind is ContactKind.FINGER_PAD
                 else [c.tension_capacity, c.normal_capacity, c.shear_capacity])
    lp.fill(np.array([c.mu for c in contacts], dtype=float)[lp.pad_owner], caps)
    return lp


def _alpha(res) -> float:
    """The maximum resistible pull of a solved pull LP."""
    if res.status != "optimal":
        raise LpNumericalFailure(f"pull LP ended {res.status}")
    return float(res.x[-1])


def solve_pull(contacts: ContactSet, pull_direction: np.ndarray) -> PullSolution:
    """Maximum resistible pull along ``pull_direction``, through the fruit
    center, with a force witness. The direction must be a 3-vector whose norm
    is finite and nonzero."""
    d = np.asarray(pull_direction, dtype=float)
    with np.errstate(over="ignore"):   # a norm past the float range fails below
        ok = d.shape == (3,) and 0.0 < _norm(d) < math.inf   # so does NaN
    if not ok:
        raise ValueError(f"pull direction must be a 3-vector of finite nonzero norm, got {d!r}")
    d = _unit(d)
    if not contacts.contacts:
        return PullSolution(0.0, (), d)
    lp = _pull_lp(contacts.contacts, d)
    res = solve_lp(*(a[0] for a in lp.lp))
    alpha = _alpha(res)
    # each contact's force: its variables times their force directions
    forces = [np.zeros(3) for _ in contacts.contacts]
    for j in np.flatnonzero(res.x[:-1] > 0.0):
        forces[lp.owner[j]] += res.x[j] * lp.lp[1][0, :3, j]
    return PullSolution(alpha, tuple(forces), d)


def verify_witness(contacts: ContactSet, sol: PullSolution) -> list[str]:
    """Re-check the witness against every constraint; return violations.

    Scale-aware tolerance: capacities and the force balance are checked to
    ``WITNESS_TOL`` x max(1, alpha) in N, the moment balance to that times
    max(1, fruit radius) in N*mm. A non-finite alpha or force is reported on
    its own, since no comparison with NaN can fail.
    """
    if not math.isfinite(sol.alpha) or not all(np.isfinite(f).all() for f in sol.forces):
        return [f"non-finite alpha or contact force (alpha {sol.alpha})"]
    problems: list[str] = []
    tol = WITNESS_TOL * max(1.0, sol.alpha)
    f_tot = np.zeros(3)
    m_tot = np.zeros(3)
    for i, (c, f) in enumerate(zip(contacts.contacts, sol.forces)):
        f_tot += f
        m_tot += np.cross(c.position, f)
        if c.kind is ContactKind.FINGER_PAD:
            n = -_unit(c.position)
            fn = float(_dot(f, n))
            ft = f - fn * n
            if fn < -tol:
                problems.append(f"contact {i}: pad normal force negative ({fn:.3e})")
            if fn > c.normal_capacity + tol:
                problems.append(f"contact {i}: pad normal capacity exceeded ({fn:.6f})")
            # linearized pyramid is inside the exact cone, so the exact cone check is valid
            if _norm(ft) > c.mu * max(fn, 0.0) + tol:
                problems.append(f"contact {i}: pad friction cone violated")
        else:
            axial = float(_dot(f, _Z))
            shear = f - axial * _Z
            if axial < -(c.tension_capacity + tol):
                problems.append(f"contact {i}: cup tension capacity exceeded ({-axial:.6f})")
            if axial > c.normal_capacity + tol:
                problems.append(f"contact {i}: cup seat compression exceeded ({axial:.6f})")
            if _norm(shear) > c.shear_capacity + tol:
                problems.append(f"contact {i}: cup shear capacity exceeded")
    pull = sol.alpha * sol.pull_direction
    resid_f = _norm(f_tot + pull)
    resid_m = _norm(m_tot)   # the pull acts through the center
    if resid_f > tol:
        problems.append(f"force balance residual {resid_f:.3e}")
    if resid_m > tol * max(1.0, contacts.fruit_radius):
        problems.append(f"moment balance residual {resid_m:.3e}")
    return problems


def pull_direction_for(scenario: GraspScenario) -> np.ndarray:
    """Pull direction for a scenario (fruit frame); every pull acts through
    the fruit center.

    An angled axial pull tilts toward the mid-gap between fingers (longitude
    60 deg); a rotational pull drags orthogonal to the axis toward longitude
    0, the weakest direction of the cup ring (conservative convention).
    """
    if scenario.pull_type is PullType.ROTATIONAL:
        return np.array([1.0, 0.0, 0.0])
    w = math.radians(scenario.pull_angle)
    az = math.radians(PULL_TILT_LONGITUDE_DEG)
    return np.array([math.sin(w) * math.cos(az), math.sin(w) * math.sin(az), math.cos(w)])


def _strength_stack(scenarios: list[GraspScenario], cup_indices: list[tuple[int, ...]],
                    model: GraspModelParams) -> _PullLp | None:
    """The geometry step of B strength queries' pull LPs, of one layout, as one
    stack (no ``Contact`` objects), or None when no contact is present
    (strength 0). ``refresh`` sets the parameters. Of ``ContactSet``'s checks
    only the model's cup tension can fail here: ``_place`` puts every
    position on its sphere and gives pads no tension."""
    positions, kinds = _place(scenarios, cup_indices)
    if not kinds:
        return None
    if ContactKind.SUCTION_CUP in kinds and model.suction_axial <= 0.0:
        raise ValueError("suction cups need positive tension capacity")
    d = _unit(np.array([pull_direction_for(s) for s in scenarios]))
    return _PullLp(positions, kinds, (DEFAULT_CONE_SIDES,) * len(kinds), d)


def predict_strength(
    scenario: GraspScenario,
    model: GraspModelParams,
    cup_indices: tuple[int, ...] = (0, 1, 2),
) -> float:
    """Predicted grasp strength (N) for a scenario: ``predict_strengths``'
    stack of one, solved with the scalar kernel."""
    lp = _strength_stack([scenario], [cup_indices], model)
    if lp is None:   # no contact holds nothing
        return 0.0
    return _alpha(solve_lp(*(a[0] for a in lp.refresh(model))))


def predict_strengths(
    queries: list[tuple[GraspScenario, tuple[int, ...]]],
    model: GraspModelParams,
) -> list[float]:
    """``predict_strength`` for many (scenario, cup_indices) queries.

    Queries of one layout (mode and cup count) are solved together, at most
    ``LP_BATCH`` per batch. A batch is built when it is solved, as one stack
    of arrays (one contact placement, one LP geometry step) for one
    ``solve_lp_batch``. Every LP and result is byte-identical to
    ``predict_strength``'s, and the same inputs fail.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (scenario, cups) in enumerate(queries):
        uses_cups = scenario.mode is not ActuationMode.FINGERS
        if uses_cups and not hasattr(cups, "__len__"):   # fail as predict_strength fails
            _place([scenario], [cups])
        groups.setdefault((scenario.mode, len(cups) if uses_cups else 0), []).append(i)
    out = [0.0] * len(queries)
    for members in groups.values():
        for start in range(0, len(members), LP_BATCH):
            chunk = members[start:start + LP_BATCH]
            lp = _strength_stack([queries[i][0] for i in chunk],
                                 [queries[i][1] for i in chunk], model)
            if lp is None:   # a layout with no contact holds nothing
                continue
            for i, res in zip(chunk, solve_lp_batch(*lp.refresh(model))):
                out[i] = _alpha(res)
    return out


# ---------------------------------------------------------------------------
# reference data and calibration
# ---------------------------------------------------------------------------

REFERENCE_CSV_HEADER = "mode,offset_mm,angle_deg,pull_type,strength_N,stdev_N,source"
REFERENCE_FRUIT_RADIUS_MM = 37.5   # the reference rows were measured on a 75 mm fruit


def reference_from_csv(text: str) -> ReferenceMeasurements:
    """Parse the reference measurement CSV (see REFERENCE_CSV_HEADER); every
    row's scenario is on a fruit of ``REFERENCE_FRUIT_RADIUS_MM``; its header
    and cells are checked by ``errors.csv_records``, as ``stats`` checks them."""
    rows: list[ReferenceRow] = []
    for line, rec in csv_records(text)[1]:
        try:
            # without a source (no column, or a short row) a row is authoritative
            source = "authoritative" if rec.get("source") is None else rec["source"]
            if source not in ("authoritative", "approximate"):
                raise ValueError(f"source must be authoritative or approximate, got {source!r}")
            scenario = GraspScenario(
                fruit_radius=REFERENCE_FRUIT_RADIUS_MM,
                fruit_offset=float(rec["offset_mm"]),
                pull_angle=float(rec["angle_deg"]),
                pull_type=PullType(rec["pull_type"]),
                mode=ActuationMode(rec["mode"]),
            )
            rows.append(
                ReferenceRow(
                    scenario=scenario,
                    strength=float(rec["strength_N"]),
                    stdev=float(rec["stdev_N"]),
                    authoritative=source == "authoritative",
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad reference row: {exc}", row=line) from exc
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
    the capacities move. So the fitted rows of each layout (mode) are one
    pull-LP stack in a ``simplexlp.WarmStack``, built at the first evaluation;
    every later one rewrites its pad columns and capacities in place and
    re-solves each row from its previous basis. The residuals are one cold
    ``predict_strengths`` pass at the fitted point, and the reported error is
    the loss over the fitted rows' residuals.
    """
    require_int(1, max_iter=max_iter)
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

    layouts: dict[ActuationMode, list[int]] = {}
    for i, row in enumerate(rows):
        layouts.setdefault(row.scenario.mode, []).append(i)
    fits: dict[ActuationMode, tuple[_PullLp, WarmStack]] = {}

    def strengths(params: GraspModelParams) -> list[float]:
        preds = [0.0] * len(rows)
        for mode, members in layouts.items():
            if mode not in fits:
                stack = _strength_stack([rows[i].scenario for i in members],
                                        [(0, 1, 2)] * len(members), params)
                warm = WarmStack(*stack.lp, -1)   # alpha, the last variable
                stack.lp, fits[mode] = warm.lp, (stack, warm)
            stack, warm = fits[mode]
            stack.refresh(params)
            for i, alpha in zip(members, warm.values(len(stack.pads) > 0)):   # mu_pad moves pads
                preds[i] = alpha
        return preds

    def loss(preds) -> float:
        err = 0.0
        for pred, row in zip(preds, rows):
            err += ((pred - row.strength) / row.strength) ** 2
        return err / len(rows)

    def objective(x) -> float:
        params = unpack(x)
        if params is None:
            return 1e9
        return loss(strengths(params))

    x0 = np.array([initial.pad_force, initial.mu_pad, initial.suction_axial,
                   initial.shear_fraction])
    res = minimize(objective, x0, max_iter=max_iter, xatol=1e-5, fatol=1e-8)
    fitted = unpack(res.x)
    if fitted is None:
        raise CalibrationDiverged("search left the admissible parameter region")

    preds = predict_strengths([(row.scenario, (0, 1, 2)) for row in reference.rows], fitted)
    residuals = [ResidualRow(scenario=row.scenario, measured=row.strength, predicted=pred,
                             rel_error=(pred - row.strength) / row.strength)
                 for row, pred in zip(reference.rows, preds)]
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
