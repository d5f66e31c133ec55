"""Exception hierarchy for the gripper toolkit, and its input guards.

Every domain failure raises a subclass of ToolkitError so callers (and the
CLI) can separate usage problems from geometry/numerical ones.
"""

import math
from numbers import Integral, Real


def require_int(low: int | None = None, /, **values) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is a bool, is
    not an int (a numpy integer is one) or is below ``low`` when given."""
    at_least = "" if low is None else f" >= {low}"
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, Integral) or (low is not None and v < low):
            raise ValueError(f"{name} must be an int{at_least}, got {v!r}")


def require_finite(**values: float) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is NaN,
    infinite, a bool or not a real number (a numpy scalar is one).

    Shared by the parameter dataclasses and the config loader: Python's
    ``json`` reads ``NaN`` and ``Infinity``, which pass every ``<=``/``<``
    range check and fail later as a division by zero or an unbounded LP.
    """
    for name, v in values.items():
        # (float and int first: an ABC check costs more, and dataclasses call this often)
        if isinstance(v, bool) or not isinstance(v, (float, int, Real)) or not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def json_number(value, name: str) -> float:
    """A number read from JSON as a float, or ``ValueError`` naming ``name``
    when it is not one: ``json`` gives strings as ``str`` and ``true`` and
    ``false`` as ``bool``, which ``float`` would silently convert."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class GeometryInfeasible(ToolkitError):
    """Linkage or track geometry cannot be assembled at the requested input."""


class NegativeY(GeometryInfeasible):
    """Nut travel x at or beyond the pivot (y = p_y - l_n - x <= 0)."""


class DenominatorNonpositive(ToolkitError):
    """Lead-screw torque denominator pi*d_m - mu*l*sec(phi) <= 0."""


class SynthesisFailed(ToolkitError):
    """No cam control-point placement satisfied the requested constraints."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        msg = f"cam synthesis failed: {constraint}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PoseUnsolvable(ToolkitError):
    """No inner-path point lies at pin separation from the outer pin."""

    def __init__(self, u: float, detail: str = ""):
        self.u = u
        msg = f"finger pose unsolvable at u={u!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class OffsetExceedsRadius(ToolkitError):
    """Fruit offset larger than the fruit radius."""


class LpNumericalFailure(ToolkitError):
    """The LP solver did not converge; message carries the basis state."""


class CalibrationDiverged(ToolkitError):
    """No parameter set achieved mean relative error below 50%."""


class ParseError(ToolkitError):
    """CSV/JSON input could not be parsed; carries row/column location (a
    CSV row is its physical line number, the header's being 1)."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc += f" row {row}"
        if column is not None:
            loc += f" column {column!r}"
        super().__init__(message + loc)


def csv_records(text: str):
    """A CSV's header names and an iterator of its ``csv.DictReader`` records,
    each as (physical line it ends on, record). A missing header and a name
    that appears twice in it raise ``ParseError`` at once, and a non-blank cell
    past the header when its record is read."""
    import csv   # here, so that the commands that read no CSV do not load it
    import io

    reader = csv.DictReader(io.StringIO(text))
    names = reader.fieldnames
    if not names:  # no text at all, or a blank first line
        raise ParseError("CSV has no header row")
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ParseError(f"duplicate column name {name!r} in the header row")

    def records():
        for rec in reader:
            # DictReader gathers the cells past the header under the key None
            if any(cell.strip() for cell in rec.get(None, ())):
                raise ParseError(f"more cells than the {len(names)} header columns",
                                 row=reader.line_num)
            yield reader.line_num, rec
    return names, records()
