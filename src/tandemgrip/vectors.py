"""Stacked 3-vector helpers (bit for bit numpy's own) and the fruit radius
range, shared by wrench, campath and picksim without loading the LP layer."""

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
    """``np.dot`` of vectors stacked on the last axis, bit for bit: the stacked
    matmul makes the same BLAS dot call per pair (an einsum or a sum does not)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` (sqrt of the dot) of vectors stacked on the last axis."""
    return np.sqrt(_dot(v, v))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norm(v)[..., None]
