"""Five-number-summary quantile models: sampling and summarizing.

Field statistics arrive as (min, Q1, median, Q3, max) rows. Sampling uses
the piecewise-linear inverse CDF through those five points, the natural
nonparametric choice when only the summary is known. Summaries use the
linear-interpolation quantile definition, so summarize(sample(model))
converges back to the model.

Summaries are pure Python, so summarizing a log (``tandemgrip stats``)
loads no numpy; sampling uses numpy, which ``sample`` imports when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ParseError, csv_records, require_finite

if TYPE_CHECKING:
    import numpy as np

_PROBS = (0.0, 0.25, 0.5, 0.75, 1.0)


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
        """Inverse-CDF transform of uniform variates ``u`` in [0, 1]; one outside
        it or NaN raises ``ValueError``, where ``np.interp`` would clamp it, and
        so does a bool or a value that is not a number."""
        import numpy as np

        v = np.asarray(u)
        if v.dtype.kind not in "iuf":
            raise ValueError(f"u must be a real number or an array of them, got {u!r}")
        outside = ~((v >= 0.0) & (v <= 1.0))
        if outside.any():
            raise ValueError(f"u must be in [0, 1], got {float(v[outside][0])!r}")
        return np.interp(u, _PROBS, self.as_tuple())


def summarize(values) -> QuantileModel:
    """Five-number summary with linear-interpolation quantiles.

    Hyndman & Fan's method 7 ("Sample quantiles in statistical packages",
    *Am. Stat.* 50(4), 1996), in the IEEE operations of numpy's
    ``np.quantile(values, p, method="linear")`` and in their order (its
    ``_lerp``), so every quantile has numpy's bits. The one exception: when
    the values hold both -0.0 and 0.0, numpy's partition may put either zero
    first, so the sign of a zero quantile can differ.
    """
    s = sorted(map(float, values))
    n = len(s)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    if not all(map(math.isfinite, s)):
        raise ValueError("cannot summarize non-finite values")
    q = []
    for p in _PROBS:
        idx = (n - 1) * p
        if idx >= n - 1:
            # numpy reads the last value through index -1 and takes the
            # weight against that index, so it is idx + 1, not 0
            lo = hi = n - 1
            g = idx + 1
        else:
            lo = math.floor(idx)
            hi = lo + 1
            g = idx - lo
        a, b = s[lo], s[hi]
        d = b - a
        q.append(b - d * (1 - g) if g >= 0.5 else a + d * g)
    # interpolating between values of opposite sign near the float limit
    # overflows; say so instead of returning inf or NaN
    if not all(map(math.isfinite, q)):
        raise ValueError("values span more than the float range; cannot summarize")
    return QuantileModel(*q)


def summarize_csv_text(text: str) -> dict[str, QuantileModel]:
    """Per-column five-number summaries of a numeric CSV (``errors.csv_records``)."""
    names, records = csv_records(text)
    columns: dict[str, list[float]] = {name: [] for name in names}
    for i, rec in records:
        for name in names:
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
