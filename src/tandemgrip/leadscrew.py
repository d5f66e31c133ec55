"""Lead-screw power transmission between motor torque and nut thrust.

Raising (driving) torque for an acme screw, inputs in N and mm, output N*m:

    T = (F * d_m / 2) * (l + pi*d_m*mu*sec(phi)) / (pi*d_m - mu*l*sec(phi)) / 1000

with lead l = pitch * n_starts and mean diameter d_m = d_outer - pitch/2.
The lowering (back-drive) companion uses the sign-flipped numerator; a
negative lowering torque means the load can back-drive the screw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DenominatorNonpositive, require_finite, require_int


@dataclass(frozen=True)
class ScrewParams:
    """Acme lead-screw description. Lengths mm, thread_angle rad."""

    pitch: float
    n_starts: int
    thread_angle: float   # acme half-angle phi, rad
    d_outer: float        # external diameter, mm
    mu: float             # thread friction coefficient

    def __post_init__(self):
        require_finite(pitch=self.pitch, thread_angle=self.thread_angle,
                       d_outer=self.d_outer, mu=self.mu)
        require_int(1, n_starts=self.n_starts)
        if self.pitch <= 0.0:
            raise ValueError("pitch must be > 0")
        if not 0.0 <= self.thread_angle < math.pi / 2:
            raise ValueError("thread_angle must be in [0, pi/2)")
        if self.d_outer <= self.pitch / 2:
            raise ValueError("d_outer must exceed pitch/2")
        if self.mu < 0.0:
            raise ValueError("mu must be >= 0")


# Tr8x8 screw of the physical prototype: 2 mm pitch, 4 starts, 14.5 deg, 8 mm, mu 0.2
DEFAULT_SCREW = ScrewParams(
    pitch=2.0, n_starts=4, thread_angle=math.radians(14.5), d_outer=8.0, mu=0.2
)


@dataclass(frozen=True)
class ScrewDerived:
    """Derived screw quantities, mm."""

    lead: float
    d_mean: float


def derive(params: ScrewParams) -> ScrewDerived:
    """Lead and mean diameter."""
    return ScrewDerived(
        lead=params.pitch * params.n_starts,
        d_mean=params.d_outer - params.pitch / 2.0,
    )


def _raise_factor(params: ScrewParams) -> float:
    """(l + pi*d_m*mu*sec phi) / (pi*d_m - mu*l*sec phi); errors if denominator <= 0."""
    d = derive(params)
    sec = 1.0 / math.cos(params.thread_angle)
    den = math.pi * d.d_mean - params.mu * d.lead * sec
    if den <= 0.0:
        raise DenominatorNonpositive(
            f"pi*d_m = {math.pi * d.d_mean:.4f} <= mu*l*sec(phi) = "
            f"{params.mu * d.lead * sec:.4f}"
        )
    num = d.lead + math.pi * d.d_mean * params.mu * sec
    return num / den


def torque_for_thrust(params: ScrewParams, f_nut: float) -> float:
    """Raising torque (N*m) to push thrust ``f_nut`` (N, >= 0)."""
    if f_nut < 0.0:
        raise ValueError("f_nut must be >= 0")
    d = derive(params)
    return f_nut * d.d_mean / 2.0 * _raise_factor(params) / 1000.0


def thrust_for_torque(params: ScrewParams, t_motor: float) -> float:
    """Nut thrust (N) produced by motor torque ``t_motor`` (N*m, >= 0).

    Exact algebraic inverse of torque_for_thrust.
    """
    if t_motor < 0.0:
        raise ValueError("t_motor must be >= 0")
    d = derive(params)
    return t_motor * 1000.0 * 2.0 / (d.d_mean * _raise_factor(params))


def back_drive_torque(params: ScrewParams, f_nut: float) -> float:
    """Lowering torque (N*m) under load ``f_nut``; negative means back-drivable."""
    if f_nut < 0.0:
        raise ValueError("f_nut must be >= 0")
    d = derive(params)
    sec = 1.0 / math.cos(params.thread_angle)
    num = math.pi * d.d_mean * params.mu * sec - d.lead
    den = math.pi * d.d_mean + params.mu * d.lead * sec
    return f_nut * d.d_mean / 2.0 * num / den / 1000.0


def is_self_locking(params: ScrewParams) -> bool:
    """True when friction holds the load with no motor torque.

    Self-locking iff mu*sec(phi) >= lead / (pi * d_mean), i.e. the lowering
    torque is non-negative.
    """
    d = derive(params)
    sec = 1.0 / math.cos(params.thread_angle)
    return params.mu * sec >= d.lead / (math.pi * d.d_mean)
