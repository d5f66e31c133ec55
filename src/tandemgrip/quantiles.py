"""Five-number-summary quantile models: sampling and summarizing.

Field statistics arrive as (min, Q1, median, Q3, max) rows. Sampling uses
the piecewise-linear inverse CDF through those five points, the natural
nonparametric choice when only the summary is known. Summaries use the
linear-interpolation quantile definition, so summarize(sample(model))
converges back to the model.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, require_finite

_PROBS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


@dataclass(frozen=True)
class QuantileModel:
    """Five-number summary of one variable."""

    q_min: float
    q1: float
    median: float
    q3: float
    q_max: float

    def __post_init__(self):
        require_finite(**vars(self))
        vals = self.as_tuple()
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("quantiles must be nondecreasing")
        # sample() interpolates across quarter-wide steps of probability; a
        # step whose slope passes the float range would sample inf
        if not all(math.isfinite((b - a) / 0.25) for a, b in zip(vals, vals[1:])):
            raise ValueError("quantiles span more than the float range; cannot sample")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.q_min, self.q1, self.median, self.q3, self.q_max)

    def sample(self, u) -> np.ndarray | float:
        """Inverse-CDF transform of uniform variates ``u`` in [0, 1]."""
        return np.interp(u, _PROBS, np.array(self.as_tuple()))


def summarize(values) -> QuantileModel:
    """Five-number summary with linear-interpolation quantiles."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    # interpolating between values of opposite sign near the float limit
    # overflows; say so instead of warning and returning inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.quantile(arr, _PROBS, method="linear")
    if not np.all(np.isfinite(q)):
        raise ValueError("values span more than the float range; cannot summarize")
    return QuantileModel(*[float(v) for v in q])


def summarize_csv_text(text: str) -> dict[str, QuantileModel]:
    """Per-column five-number summaries of a numeric CSV."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ParseError("CSV has no header row")
    columns: dict[str, list[float]] = {name: [] for name in reader.fieldnames}
    for i, rec in enumerate(reader, start=2):
        for name in reader.fieldnames:
            raw = (rec.get(name) or "").strip()
            if raw == "":
                continue
            try:
                value = float(raw)
            except ValueError as exc:
                raise ParseError(f"non-numeric value {raw!r}", row=i, column=name) from exc
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {raw!r}", row=i, column=name)
            columns[name].append(value)
    out = {}
    for name, vals in columns.items():
        if vals:
            out[name] = summarize(vals)
    if not out:
        raise ParseError("no numeric columns found")
    return out
