"""Two-region cam tracks and the finger rigid-body pose along them.

Each finger carries two pivot pins riding two planar tracks (axial plane of
the gripper: x = radial distance from the gripper axis, z = axial, palm
plane at z = 0, fruit sphere resting on the palm). The track pair encodes
two behaviors:

  sweeping   both pins slide; the finger rises from behind the palm and
             swings around the fruit with clearance;
  clamping   the inner pin rests on a hard stop at the end of the inner
             path; the outer pin continues along a circular arc about the
             stop, rotating the finger so the pad tip lands on the fruit.

Tracks are piecewise cubic Bezier curves (two outer segments, one inner).
The clamp segment approximates the pin circle around the hard stop; the
pose solver snaps the outer pin onto the exact circle (sub-micrometre
correction, i.e. the slot play), which keeps the rigid pin separation
satisfied to machine precision at every sample.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import PoseUnsolvable, SynthesisFailed, json_number, require_finite, require_int
from .vectors import FRUIT_RADIUS_RANGE_MM, _dot, _norm

Point = tuple[float, float]

SNAP_TOL_MM = 0.05        # outer-pin slot play absorbed in the clamp region
HARD_STOP_TOL_MM = 1e-3   # inner pin within this of the stop counts as clamping
EPS = 1e-9
MAX_REACH_MM = 120.0      # radial envelope of the palm/track housing
ARC_SAMPLES = 2048        # arc-length table resolution
SCAN_SAMPLES = 129        # coarse scan of the inner parameter
SCAN_BLOCK = 512          # samples scanned together (a 1 MB distance table)
MAX_SAMPLES = 100_000     # most poses one validate_path pass may solve
SYNTHESIS_SAMPLES = 500   # poses build_default_tracks validates each candidate at
# largest cam-spec coordinate or length: far past any gripper, and far
# below where the pose solver's squared distances overflow
MAX_TRACK_MM = 1e6


def _pow(x: np.ndarray, n: float) -> np.ndarray:
    """``x ** n`` per element through libm's ``pow``, as Python's ``**`` takes
    it; numpy's ``power`` and a product of factors differ in the last bit."""
    return np.fromiter(map(math.pow, x.ravel().tolist(), repeat(n)), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class CubicBezier:
    """Cubic Bezier segment, control points in mm."""

    p0: Point
    p1: Point
    p2: Point
    p3: Point

    def eval(self, t) -> np.ndarray:
        """The point at parameter ``t``, or at each parameter of an array ``t``
        (points on the last axis). The powers are Python's ``**`` per element
        and the four terms add in order from +0.0, as ``sum`` adds them from
        int 0, so each point has the same bits whichever way it is asked for."""
        t = np.asarray(t, dtype=float)[..., None]
        mt = 1.0 - t
        return (0.0 + _pow(mt, 3.0) * self.p0 + 3.0 * _pow(mt, 2.0) * t * self.p1
                + 3.0 * mt * _pow(t, 2.0) * self.p2 + _pow(t, 3.0) * self.p3)

    def as_list(self) -> list[list[float]]:
        return [list(self.p0), list(self.p1), list(self.p2), list(self.p3)]


class Region(enum.Enum):
    SWEEPING = "sweeping"
    CLAMPING = "clamping"


@dataclass(frozen=True)
class CamTrackSpec:
    """Parameterized cam-track pair plus the finger and fruit geometry."""

    outer_path: tuple[CubicBezier, ...]
    inner_path: CubicBezier
    pin_separation: float          # mm, rigid distance between the pins
    inner_hard_stop: float         # inner-path parameter where the path ends
    fruit_radius: float            # mm
    fruit_center: Point            # mm, axial plane
    palm_plane_z: float            # mm
    tip_extension: float           # mm, inner pin to pad tip lever
    pad_halfwidth: float = 5.0     # mm, finger body widening for clearance tests
    contact_latitude_max_deg: float = 6.0   # final pad contact at or above this

    def __post_init__(self):
        if not self.outer_path:
            raise ValueError("outer_path must have at least one segment")
        segments = {f"outer_path[{k}]": seg for k, seg in enumerate(self.outer_path)}
        segments["inner_path"] = self.inner_path
        lengths = {f"{name}.p{j}[{i}]": v for name, seg in segments.items()
                   for j, point in enumerate(seg.as_list()) for i, v in enumerate(point)}
        lengths.update(
            pin_separation=self.pin_separation, fruit_radius=self.fruit_radius,
            fruit_center_x=self.fruit_center[0], fruit_center_z=self.fruit_center[1],
            palm_plane_z=self.palm_plane_z, tip_extension=self.tip_extension,
            pad_halfwidth=self.pad_halfwidth,
        )
        require_finite(**lengths, inner_hard_stop=self.inner_hard_stop,
                       contact_latitude_max_deg=self.contact_latitude_max_deg)
        for name, v in lengths.items():
            if abs(v) > MAX_TRACK_MM:
                raise ValueError(f"{name} must be within +-{MAX_TRACK_MM:g} mm, got {v!r}")
        if self.pin_separation <= 0.0:
            raise ValueError("pin_separation must be > 0")
        if not 0.0 < self.inner_hard_stop <= 1.0:
            raise ValueError("inner_hard_stop must be in (0, 1]")
        if self.fruit_radius <= 0.0 or self.tip_extension <= 0.0:
            raise ValueError("fruit_radius and tip_extension must be > 0")

    def hard_stop_point(self) -> np.ndarray:
        return self.inner_path.eval(self.inner_hard_stop)

    def to_json(self) -> str:
        return json.dumps({
            "outer_path": [seg.as_list() for seg in self.outer_path],
            "inner_path": self.inner_path.as_list(),
            "pin_separation_mm": self.pin_separation,
            "inner_hard_stop": self.inner_hard_stop,
            "fruit_radius_mm": self.fruit_radius,
            "fruit_center_mm": list(self.fruit_center),
            "palm_plane_z_mm": self.palm_plane_z,
            "tip_extension_mm": self.tip_extension,
            "pad_halfwidth_mm": self.pad_halfwidth,
            "contact_latitude_max_deg": self.contact_latitude_max_deg,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CamTrackSpec":
        """Parse ``to_json``'s document. A document of another shape raises
        ``ValueError`` (or ``KeyError`` for a missing field) naming the
        field."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("cam track JSON must be an object")

        def items(value, n, name, what):
            if not isinstance(value, list) or len(value) != n:
                raise ValueError(f"{name} must be a list of {n} {what}")
            return value

        def point(p, name) -> Point:
            x, z = items(p, 2, name, "coordinates")
            return json_number(x, f"{name}[0]"), json_number(z, f"{name}[1]")

        def seg(s, name) -> CubicBezier:
            return CubicBezier(*(point(p, f"{name}[{j}]")
                                 for j, p in enumerate(items(s, 4, name, "control points"))))

        outer = d["outer_path"]
        if not isinstance(outer, list):
            raise ValueError("outer_path must be a list of segments")
        return cls(
            outer_path=tuple(seg(s, f"outer_path[{k}]") for k, s in enumerate(outer)),
            inner_path=seg(d["inner_path"], "inner_path"),
            pin_separation=json_number(d["pin_separation_mm"], "pin_separation_mm"),
            inner_hard_stop=json_number(d["inner_hard_stop"], "inner_hard_stop"),
            fruit_radius=json_number(d["fruit_radius_mm"], "fruit_radius_mm"),
            fruit_center=point(d["fruit_center_mm"], "fruit_center_mm"),
            palm_plane_z=json_number(d["palm_plane_z_mm"], "palm_plane_z_mm"),
            tip_extension=json_number(d["tip_extension_mm"], "tip_extension_mm"),
            pad_halfwidth=json_number(d["pad_halfwidth_mm"], "pad_halfwidth_mm"),
            contact_latitude_max_deg=json_number(d.get("contact_latitude_max_deg", 6.0),
                                                 "contact_latitude_max_deg"),
        )


@dataclass(frozen=True)
class FingerPose:
    inner_pin: np.ndarray
    outer_pin: np.ndarray
    pad_tip: np.ndarray
    region: Region
    rotation: float     # rad, tip direction tilt from the gripper axis (+z)


@dataclass(frozen=True)
class PathReport:
    min_clearance: float            # mm, sweeping region only, signed
    max_sweep_radius: float         # mm
    clamp_contact_latitude: float   # rad, positive below the fruit equator
    interference: bool
    poses: tuple[tuple[float, FingerPose], ...] = field(compare=False, repr=False)  # (u, pose)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _hermite(p0: np.ndarray, m0: np.ndarray, p3: np.ndarray, m3: np.ndarray) -> CubicBezier:
    c1 = p0 + m0 / 3.0
    c2 = p3 - m3 / 3.0
    return CubicBezier(tuple(p0), tuple(c1), tuple(c2), tuple(p3))


def _arc(center: np.ndarray, radius: float, a0: float, a1: float) -> CubicBezier:
    k = (4.0 / 3.0) * math.tan((a1 - a0) / 4.0)
    p0 = center + radius * np.array([math.cos(a0), math.sin(a0)])
    p3 = center + radius * np.array([math.cos(a1), math.sin(a1)])
    t0 = np.array([-math.sin(a0), math.cos(a0)])
    t1 = np.array([-math.sin(a1), math.cos(a1)])
    return CubicBezier(tuple(p0), tuple(p0 + k * radius * t0),
                       tuple(p3 - k * radius * t1), tuple(p3))


def _build_candidate(fruit_radius: float, deepen: float) -> CamTrackSpec:
    r = fruit_radius
    s = 0.48 * r                      # pin separation
    lever = r                         # tip lever: final pose puts the tip on the equator
    hard = np.array([r, 0.0])         # hard stop at palm level beside the fruit
    psi0 = math.radians(95.0)         # start tilt (tip below horizontal, outboard)
    psi_star = math.radians(20.0)     # tilt at the sweep/clamp transition
    i0 = np.array([0.45 * r, -0.18 * r - deepen])

    def outer_of(inner: np.ndarray, psi: float) -> np.ndarray:
        return inner - s * np.array([math.sin(psi), math.cos(psi)])

    rail = hard - i0
    e = rail / _norm(rail)
    inner = CubicBezier(tuple(i0), tuple(i0 + rail / 3.0),
                        tuple(i0 + 2.0 * rail / 3.0), tuple(hard))

    o0 = outer_of(i0, psi0)
    o_star = outer_of(hard, psi_star)
    v0 = o_star - hard
    a0 = math.atan2(v0[1], v0[0])
    o1 = outer_of(hard, 0.0)
    a1 = math.atan2(*(o1 - hard)[::-1])
    clamp = _arc(hard, s, a0, a1)
    arc_t0 = np.array([-math.sin(a0), math.cos(a0)])   # a0 = -110 deg < a1 = -90 deg
    chord = float(_norm(o_star - o0))
    sweep = _hermite(o0, e * chord, o_star, arc_t0 * chord * 0.9)

    return CamTrackSpec(
        outer_path=(sweep, clamp), inner_path=inner, pin_separation=s,
        inner_hard_stop=1.0, fruit_radius=r, fruit_center=(0.0, r),
        palm_plane_z=0.0, tip_extension=lever,
    )


def build_default_tracks(fruit_radius: float,
                         clearance: float) -> tuple[CamTrackSpec, PathReport]:
    """Synthesize the default track pair for a fruit sphere.

    The sweeping region keeps the (pad-widened) finger at least ``clearance``
    from the fruit; the clamping region ends with the pad tip on the fruit
    at the equator. The rail start is deepened adaptively when the requested
    clearance is not met on the first try. Returns the spec and its report.
    """
    require_finite(fruit_radius=fruit_radius, clearance=clearance)
    # the smallest fruit the grasp model takes; the palm envelope below
    # bounds the largest
    if fruit_radius < FRUIT_RADIUS_RANGE_MM[0]:
        raise ValueError(f"fruit_radius must be >= {FRUIT_RADIUS_RANGE_MM[0]:g} mm")
    if clearance < 0.0:
        raise ValueError("clearance must be >= 0")
    reach = fruit_radius + clearance + CamTrackSpec.pad_halfwidth
    if reach > MAX_REACH_MM:
        raise SynthesisFailed(
            "palm envelope",
            f"required sweep radius {reach:.1f} mm exceeds {MAX_REACH_MM} mm",
        )

    deepen = 0.0
    last_reason = ""
    for _ in range(4):
        spec = _build_candidate(fruit_radius, deepen)
        try:
            report = validate_path(spec, SYNTHESIS_SAMPLES)
        except PoseUnsolvable as exc:
            raise SynthesisFailed("pose solvability", str(exc)) from exc
        _, pose0 = report.poses[0]
        if pose0.pad_tip[1] >= spec.palm_plane_z:
            raise SynthesisFailed("retracted start", "tip not behind the palm plane")
        lat_max = math.radians(spec.contact_latitude_max_deg)
        if report.clamp_contact_latitude > lat_max:
            raise SynthesisFailed(
                "contact latitude",
                f"{math.degrees(report.clamp_contact_latitude):.2f} deg below equator",
            )
        if report.min_clearance >= clearance:
            return spec, report
        last_reason = (
            f"min clearance {report.min_clearance:.2f} mm < {clearance:.2f} mm"
        )
        deepen += (clearance - report.min_clearance) + 0.5
    raise SynthesisFailed("sweep clearance", last_reason)


# ---------------------------------------------------------------------------
# pose solving
# ---------------------------------------------------------------------------

def _outer_table(spec: CamTrackSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense polyline + cumulative arc length of the full outer path."""
    ts = np.linspace(0.0, 1.0, ARC_SAMPLES)
    chunks = []
    for k, seg in enumerate(spec.outer_path):
        pts = seg.eval(ts)
        chunks.append(pts if k == 0 else pts[1:])
    pts = np.vstack(chunks)
    d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return pts, np.concatenate([[0.0], np.cumsum(d)])


def _outer_points(spec: CamTrackSpec, us: np.ndarray) -> np.ndarray:
    """Outer-pin positions at arc-length fractions ``us``, one row each."""
    pts, cum = _outer_table(spec)
    target = us * cum[-1]
    i = np.clip(np.searchsorted(cum, target), 1, len(cum) - 1)
    seg_len = cum[i] - cum[i - 1]
    f = np.zeros_like(target)
    step = seg_len > 0.0
    f[step] = (target[step] - cum[i - 1][step]) / seg_len[step]
    return pts[i - 1] + f[:, None] * (pts[i] - pts[i - 1])


def solve_finger_poses(spec: CamTrackSpec, us) -> list[FingerPose]:
    """Finger poses at outer-pin arc-length fractions ``us`` in [0, 1], solved
    as one batch.

    The outer pin is placed on the outer path; the inner pin is found by
    1D root finding on the inner-path parameter so the pin separation holds
    exactly: a coarse scan brackets each sample's rightmost root, and one
    64-step bisection halves every bracket at once. Past the hard stop the
    inner pin is pinned there and the outer pin is snapped onto the exact
    pin circle (clamping rotation). The first unsolvable sample raises
    ``PoseUnsolvable``. Each vector's norm is ``vectors._norm``'s in-order
    sum; the coarse scan's are one numpy reduction over the grid axis.
    """
    us = np.asarray(us, dtype=float)
    if not np.all((us >= 0.0) & (us <= 1.0)):
        raise ValueError("u must be in [0, 1]")
    outer = _outer_points(spec, us)
    s = spec.pin_separation
    hard = spec.hard_stop_point()

    # coarse scan of SCAN_BLOCK samples at a time, so temporaries stay
    # bounded: each sample's smallest |grid - outer| - s, its value at the
    # hard stop (the last grid point) and the rightmost grid index within
    # pin distance (-1 for none)
    ts = np.linspace(0.0, spec.inner_hard_stop, SCAN_SAMPLES)
    grid = spec.inner_path.eval(ts)
    f_min, f_end, k = np.empty(len(us)), np.empty(len(us)), np.empty(len(us), dtype=int)
    for a in range(0, len(us), SCAN_BLOCK):
        block = slice(a, a + SCAN_BLOCK)
        fs = np.linalg.norm(grid - outer[block, None], axis=2) - s
        f_min[block], f_end[block] = fs.min(axis=1), fs[:, -1]
        k[block] = np.where(fs <= EPS, np.arange(len(ts)), -1).max(axis=1)

    # no rail point at pin distance, or the outer pin is inside the hard-stop
    # circle: either the clamp arc (snap) or an inconsistency
    # (a NaN fails each `<=` test, so the tests are negated, not flipped)
    off_rail = (f_min > EPS) | (f_end < -EPS)
    bad = off_rail & ~(np.abs(f_end) <= SNAP_TOL_MM)
    if bad.any():
        i = int(np.argmax(bad))
        raise PoseUnsolvable(float(us[i]), (
            f"min |inner - outer| - s = {f_min[i]:.4f} mm, "
            f"at the hard stop {f_end[i]:.4f} mm"
        ))

    # rightmost crossing: the inner pin is maximally advanced toward the stop
    b = np.flatnonzero(~off_rail & (k < len(ts) - 1))
    lo, hi, ob = ts[k[b]], ts[k[b] + 1], outer[b]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = _norm(spec.inner_path.eval(mid) - ob) - s <= 0.0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    root = spec.inner_path.eval(0.5 * (lo + hi))
    b_sweep = ~(_norm(root - hard) <= HARD_STOP_TOL_MM)

    sweeping = np.zeros(len(us), dtype=bool)
    sweeping[b[b_sweep]] = True
    inner = np.tile(hard, (len(us), 1))
    inner[sweeping] = root[b_sweep]
    # clamping: the outer pin onto the exact circle about the stop (slot play)
    c = ~sweeping
    outer[c] = hard + s * (outer[c] - hard) / _norm(outer[c] - hard)[:, None]

    u_io = (outer - inner) / _norm(outer - inner)[:, None]
    tip = inner - spec.tip_extension * u_io
    tip_dir = (tip - inner) / spec.tip_extension
    rotation = map(math.atan2, tip_dir[:, 0].tolist(), tip_dir[:, 1].tolist())
    return [FingerPose(inner_pin=i, outer_pin=o, pad_tip=p,
                       region=Region.SWEEPING if sw else Region.CLAMPING, rotation=r)
            for i, o, p, sw, r in zip(inner, outer, tip, sweeping.tolist(), rotation)]


def solve_finger_pose(spec: CamTrackSpec, u: float) -> FingerPose:
    """Finger pose at outer-pin arc-length fraction ``u`` in [0, 1]: the
    one-sample case of ``solve_finger_poses``."""
    return solve_finger_poses(spec, [u])[0]


def _segment_clearance(a: np.ndarray, b: np.ndarray, center: np.ndarray,
                       radius: float, halfwidth: float) -> np.ndarray:
    """Signed distance of each widened finger segment (rows of ``a`` to rows
    of ``b``) to the fruit sphere."""
    ab = b - a
    t = np.clip(_dot(center - a, ab) / _dot(ab, ab), 0.0, 1.0)
    closest = a + t[:, None] * ab
    return _norm(closest - center) - radius - halfwidth


def validate_path(spec: CamTrackSpec, samples: int) -> PathReport:
    """Solve poses uniformly in u, once each; report them with clearance and contact."""
    require_int(2, samples=samples)
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}")
    center = np.array(spec.fruit_center)
    us = np.linspace(0.0, 1.0, samples)
    poses = tuple(zip(us.tolist(), solve_finger_poses(spec, us)))
    sweep = [p for _, p in poses if p.region is Region.SWEEPING]
    inner = np.array([p.inner_pin for p in sweep]).reshape(-1, 2)
    tip = np.array([p.pad_tip for p in sweep]).reshape(-1, 2)
    clear = _segment_clearance(inner, tip, center, spec.fruit_radius, spec.pad_halfwidth)
    # builtin min and max, in sample order, as a running min/max takes them
    min_clear = min([math.inf, *clear.tolist()])
    max_radius = max([0.0, *np.abs(tip[:, 0]).tolist()])
    final_tip = poses[-1][1].pad_tip
    sin_lat = float(np.clip((center[1] - final_tip[1]) / spec.fruit_radius, -1.0, 1.0))
    latitude = math.asin(sin_lat)
    if min_clear is math.inf:
        min_clear = 0.0
    return PathReport(
        min_clearance=min_clear,
        max_sweep_radius=max_radius,
        clamp_contact_latitude=latitude,
        interference=min_clear < 0.0,
        poses=poses,
    )


POSES_CSV_HEADER = "u,inner_x,inner_z,outer_x,outer_z,tip_x,tip_z,region"


def poses_to_csv(report: PathReport) -> str:
    """The pose table of a validation pass as CSV (9 significant digits)."""
    def fmt(v: float) -> str:
        return f"{v:.9g}"

    lines = [POSES_CSV_HEADER]
    for u, p in report.poses:
        lines.append(",".join([
            fmt(u), fmt(p.inner_pin[0]), fmt(p.inner_pin[1]),
            fmt(p.outer_pin[0]), fmt(p.outer_pin[1]),
            fmt(p.pad_tip[0]), fmt(p.pad_tip[1]), p.region.value,
        ]))
    return "\n".join(lines) + "\n"


def report_to_json(report: PathReport) -> str:
    return json.dumps({
        "min_clearance_mm": report.min_clearance,
        "max_sweep_radius_mm": report.max_sweep_radius,
        "clamp_contact_latitude_deg": math.degrees(report.clamp_contact_latitude),
        "interference": report.interference,
    }, indent=2)
