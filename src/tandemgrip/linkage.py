"""Static force-transmission model of the crank-slider finger linkage.

The fruit-clamping region of the cam-driven finger behaves as a crank-slider:
the lead-screw nut pushes a connecting bar, the bar turns the finger knuckle
about a fixed pivot, and the finger lever presses its pad on the fruit.

Geometry (all lengths mm, angles rad):

    y      remaining axial distance between nut and pivot, y = p_y - l_n - x
    gamma  angle between bar and knuckle (law of cosines at the elbow)
    alpha  angle between the screw axis and the nut-to-pivot line, atan(p_x/y)
    theta  angle between the nut-to-pivot line and the bar (law of sines)
    ratio  F_out / F_nut = (l_k / l_f) * sin(gamma) / cos(alpha + theta)

A fully independent vector-statics route (explicit joint coordinates, cross
products) is provided by ``moment_balance_check`` to guard the closed form.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import GeometryInfeasible, NegativeY, require_finite
from .leadscrew import ScrewParams, torque_for_thrust

# acos/asin arguments within this slack of +-1 are clamped instead of rejected
TRIG_SLACK = 1e-9
# most nut positions one travel_grid may hold; the default 0.1 mm grid has 91
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class LinkageParams:
    """Crank-slider geometry. All lengths in mm, strictly positive."""

    p_x: float   # horizontal offset between screw axis and fixed pivot
    l_b: float   # connecting bar length
    l_k: float   # knuckle (crank) length
    l_f: float   # finger lever arm, pivot to pad contact
    p_y: float   # axial datum distance, sets y = p_y - l_n - x
    l_n: float   # nut length

    def __post_init__(self):
        require_finite(**vars(self))
        for name in ("p_x", "l_b", "l_k", "l_f", "p_y", "l_n"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


# geometry of the physical prototype (mm)
DEFAULT_LINKAGE = LinkageParams(p_x=12.0, l_b=18.5, l_k=17.5, l_f=48.0, p_y=90.0, l_n=7.0)


@dataclass(frozen=True)
class TravelRange:
    """Nut-travel interval of the clamp region, mm."""

    x_min: float
    x_max: float

    def __post_init__(self):
        require_finite(**vars(self))
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")


DEFAULT_TRAVEL = TravelRange(x_min=50.0, x_max=59.0)


@dataclass(frozen=True)
class LinkageState:
    """Solved linkage configuration at one nut position."""

    x: float        # nut travel, mm
    y: float        # mm
    gamma: float    # rad
    alpha: float    # rad
    theta: float    # rad
    ratio: float    # F_out / F_nut, dimensionless


@dataclass(frozen=True)
class ForceState:
    """Force flow through the linkage for a given nut thrust."""

    f_nut: float    # N, thrust at the nut
    f_bar: float    # N, axial force in the connecting bar
    f_out: float    # N, normal force at the finger pad


def _checked_acos(arg: float, what: str) -> float:
    if abs(arg) > 1.0 + TRIG_SLACK:
        raise GeometryInfeasible(f"{what}: acos argument {arg!r} outside [-1, 1]")
    return math.acos(max(-1.0, min(1.0, arg)))


def _checked_asin(arg: float, what: str) -> float:
    if abs(arg) > 1.0 + TRIG_SLACK:
        raise GeometryInfeasible(f"{what}: asin argument {arg!r} outside [-1, 1]")
    return math.asin(max(-1.0, min(1.0, arg)))


def solve_geometry(params: LinkageParams, x: float) -> LinkageState:
    """Solve the linkage angles at nut travel ``x`` (mm).

    Raises NegativeY when the nut reaches or passes the pivot datum,
    GeometryInfeasible when the triangle cannot close or the transmission
    becomes singular (alpha + theta >= 90 deg).
    """
    y = params.p_y - params.l_n - x
    if y <= 0.0:
        raise NegativeY(f"x={x} gives y={y} <= 0 (x >= p_y - l_n)")

    cos_gamma = (params.l_b**2 + params.l_k**2 - params.p_x**2 - y**2) / (
        2.0 * params.l_b * params.l_k
    )
    gamma = _checked_acos(cos_gamma, f"gamma at x={x}")
    alpha = math.atan(params.p_x / y)
    hyp = math.hypot(params.p_x, y)
    theta = _checked_asin(params.l_k * math.sin(gamma) / hyp, f"theta at x={x}")

    cos_at = math.cos(alpha + theta)
    if cos_at <= TRIG_SLACK:
        raise GeometryInfeasible(
            f"alpha + theta = {math.degrees(alpha + theta):.2f} deg at x={x}: "
            "transmission singular"
        )
    ratio = (params.l_k / params.l_f) * math.sin(gamma) / cos_at
    return LinkageState(x=x, y=y, gamma=gamma, alpha=alpha, theta=theta, ratio=ratio)


def transmission_ratio(params: LinkageParams, x: float) -> float:
    """F_out / F_nut at nut travel ``x``; strictly positive."""
    return solve_geometry(params, x).ratio


def force_out(params: LinkageParams, x: float, f_nut: float) -> ForceState:
    """Forces through the linkage for nut thrust ``f_nut`` (N, >= 0)."""
    if f_nut < 0.0:
        raise ValueError("f_nut must be >= 0")
    st = solve_geometry(params, x)
    f_bar = f_nut / math.cos(st.alpha + st.theta)
    return ForceState(f_nut=f_nut, f_bar=f_bar, f_out=st.ratio * f_nut)


def joint_coordinates(params: LinkageParams, x: float) -> dict[str, tuple[float, float]]:
    """Planar joint positions: pivot at the origin level, screw axis vertical.

    The nut sits on the screw axis at (0, y); the pivot is offset p_x
    horizontally. The elbow joint is a circle-circle intersection of the
    bar (radius l_b about the nut) and the knuckle (radius l_k about the
    pivot). Of the two mirror assemblies, the one whose bar makes the
    angle alpha + theta with the screw axis is the mechanism's (the other
    branch folds the bar back across the nut-to-pivot line).
    """
    st = solve_geometry(params, x)  # validates feasibility
    nut = (0.0, st.y)
    pivot = (params.p_x, 0.0)
    dx, dy = pivot[0] - nut[0], pivot[1] - nut[1]
    d = math.hypot(dx, dy)
    # distance from nut along the nut->pivot line to the chord through the elbow
    a = (params.l_b**2 - params.l_k**2 + d**2) / (2.0 * d)
    h_sq = params.l_b**2 - a**2
    if h_sq < -TRIG_SLACK:
        raise GeometryInfeasible(f"elbow circles do not intersect at x={x}")
    h = math.sqrt(max(h_sq, 0.0))
    mx, my = nut[0] + a * dx / d, nut[1] + a * dy / d
    target = st.alpha + st.theta

    def bar_axis_angle(elbow):
        bx, by = elbow[0] - nut[0], elbow[1] - nut[1]
        return math.acos(max(-1.0, min(1.0, abs(by) / math.hypot(bx, by))))

    candidates = [
        (mx - h * dy / d, my + h * dx / d),
        (mx + h * dy / d, my - h * dx / d),
    ]
    elbow = min(candidates, key=lambda e: abs(bar_axis_angle(e) - target))
    return {"nut": nut, "elbow": elbow, "pivot": pivot}


def moment_balance_check(params: LinkageParams, x: float, f_nut: float) -> float:
    """Relative disagreement between vector statics and the closed form.

    Reconstructs the joint coordinates, carries the nut thrust into the bar
    (two-force member), takes the moment of the bar force about the pivot
    with a cross product, and converts it to a pad force via the lever arm.
    Returns |f_out_vector - f_out_closed| / max(f_out_closed, 1 N).
    """
    if f_nut < 0.0:
        raise ValueError("f_nut must be >= 0")
    joints = joint_coordinates(params, x)
    closed = force_out(params, x, f_nut).f_out

    nut, elbow, pivot = joints["nut"], joints["elbow"], joints["pivot"]
    bx, by = elbow[0] - nut[0], elbow[1] - nut[1]
    b_len = math.hypot(bx, by)
    ux, uy = bx / b_len, by / b_len
    if abs(uy) <= TRIG_SLACK:
        raise GeometryInfeasible(f"bar perpendicular to screw axis at x={x}")
    # axial (screw-direction) equilibrium of the nut sets the bar force
    f_bar = f_nut / abs(uy)
    fx, fy = f_bar * ux, f_bar * uy
    rx, ry = elbow[0] - pivot[0], elbow[1] - pivot[1]
    moment = abs(rx * fy - ry * fx)
    f_out_vec = moment / params.l_f
    return abs(f_out_vec - closed) / max(closed, 1.0)


@dataclass(frozen=True)
class SweepRow:
    """One sample of the transmission sweep. Angle columns in rad."""

    x: float
    feasible: bool
    y: float | None = None
    gamma: float | None = None
    alpha: float | None = None
    theta: float | None = None
    ratio: float | None = None
    f_nut: float | None = None
    t_motor: float | None = None


SWEEP_CSV_HEADER = (
    "x_mm,y_mm,gamma_deg,alpha_deg,theta_deg,alpha_plus_theta_deg,ratio,f_nut_N,t_motor_Nm"
)


def check_step(step: float) -> None:
    """Reject a grid step that is not a positive finite number."""
    if not step > 0.0:
        raise ValueError("step must be > 0")
    require_finite(step=step)


def travel_grid(travel: TravelRange, step: float) -> Iterator[float]:
    """Nut positions x_min, x_min + step, ... that do not pass x_max.

    The step is checked at the call, against zero and against a grid of more
    than ``MAX_GRID_POINTS`` points; the positions are generated lazily.
    """
    check_step(step)
    spans = (travel.x_max - travel.x_min) / step + 1e-9
    if not spans < MAX_GRID_POINTS:
        raise ValueError(f"step {step!r} gives more than {MAX_GRID_POINTS} grid points")
    n = int(math.floor(spans)) + 1
    return (travel.x_min + i * step for i in range(n))


def sweep_transmission(
    params: LinkageParams,
    travel: TravelRange,
    step: float,
    f_out_target: float,
    screw: ScrewParams,
) -> list[SweepRow]:
    """Sample the transmission over the travel range.

    Each row carries the geometry plus the nut thrust needed for
    ``f_out_target`` and the matching motor torque. Rows where the geometry
    fails are kept and marked infeasible rather than dropped.
    """
    return [transmission_row(params, x, f_out_target, screw)
            for x in travel_grid(travel, step)]


def transmission_row(
    params: LinkageParams,
    x: float,
    f_out_target: float,
    screw: ScrewParams,
) -> SweepRow:
    """One ``sweep_transmission`` row, at nut position ``x``."""
    require_finite(f_out_target=f_out_target)
    try:
        st = solve_geometry(params, x)
    except GeometryInfeasible:
        return SweepRow(x=x, feasible=False)
    f_nut = f_out_target / st.ratio
    t_motor = torque_for_thrust(screw, f_nut)
    if not math.isfinite(t_motor):
        raise ValueError(f"f_out_target {f_out_target!r} N overflows the motor torque")
    return SweepRow(
        x=x, feasible=True, y=st.y, gamma=st.gamma, alpha=st.alpha,
        theta=st.theta, ratio=st.ratio, f_nut=f_nut, t_motor=t_motor,
    )


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV (degrees at this boundary, 9 sig digits)."""
    def fmt(v: float | None) -> str:
        return "" if v is None else f"{v:.9g}"

    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        if r.feasible:
            cells = [
                fmt(r.x), fmt(r.y), fmt(math.degrees(r.gamma)),
                fmt(math.degrees(r.alpha)), fmt(math.degrees(r.theta)),
                fmt(math.degrees(r.alpha + r.theta)), fmt(r.ratio),
                fmt(r.f_nut), fmt(r.t_motor),
            ]
        else:
            cells = [fmt(r.x)] + [""] * 8
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
