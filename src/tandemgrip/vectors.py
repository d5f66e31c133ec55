"""Stacked 3-vector helpers and the fruit radius range, shared by wrench, campath
and picksim without loading the LP layer. Dots and norms are in-order IEEE sums of
elementwise products, so their bits depend on no CPU or BLAS kernel."""

from __future__ import annotations

import numpy as np

# fruit radii the pull LP answers soundly; far outside, its moments overflow
# or its answer is lost to rounding
FRUIT_RADIUS_RANGE_MM = (1.0, 1000.0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of 3-vectors stacked on the last axis, in its operation
    order (so bit for bit the same) without its per-call overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of 2- or 3-vectors stacked on the last axis: a0*b0 + a1*b1 (+ a2*b2),
    added in that order with no leading zero (so -0.0 only if every term is)."""
    p = a * b
    s = p[..., 0] + p[..., 1]
    return s + p[..., 2] if p.shape[-1] == 3 else s


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm (sqrt of ``_dot(v, v)``) of vectors stacked on the last axis."""
    return np.sqrt(_dot(v, v))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norm(v)[..., None]
