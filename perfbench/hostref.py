"""How fast the shared host runs right now.

A shared host can run in fast and slow spells: on a shared 2-vCPU Xeon VM
the same campaign or fit took up to about twice its best time, the spells
changed within seconds and lasted up to minutes, and process CPU time
slowed with wall time, so the cause was the CPU itself, not the scheduler. ``reference_s`` times a
fixed computation; a toolkit time divided by the reference times taken
right before and after it is in "ref" units, which the spells change far
less than they change seconds. Stdlib and numpy only, so that no change to
the toolkit can change the reference.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

# ``setup_s`` must be given in seconds: it is the set-up time in ref units
# times this fixed number, a round value near one ref on the host the
# benchmark was built on. It is seconds at a fixed host speed.
NOMINAL_REF_S = 0.1

_ROWS, _COLS, _STEPS = 30, 60, 6000
_TABLE = (np.arange(_ROWS * _COLS, dtype=float).reshape(_ROWS, _COLS) % 7.0) + 1.0


def reference_s() -> float:
    """Seconds the host takes now for a fixed mix of small numpy row updates
    and Python dict work, the kind of work the toolkit's simplex does. Every
    entry stays in (0, 1], so no step meets a denormal, inf or NaN."""
    t0 = time.perf_counter()
    a = _TABLE.copy()
    acc = 0
    for k in range(_STEPS):
        r = k % _ROWS
        a[r] /= a[r].max()
        for i in (r - 1, r - 2, r - 3):
            a[i] = 0.5 * (a[i] + a[r])
        acc += sum({j: j * k for j in range(20)}.values())
    return time.perf_counter() - t0


@contextlib.contextmanager
def one_cpu():
    """Hold this process, and the processes it starts meanwhile, on one CPU,
    so that a reference it runs measures the CPU a child ran on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Pieces:
    """A task timed in pieces, with a reference run before the first piece
    and after every piece."""

    def __init__(self):
        self.pieces: list[float] = []
        self.refs = [reference_s()]
        self._t0 = time.perf_counter()

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def cut(self) -> None:
        self.pieces.append(time.perf_counter() - self._t0)
        self.refs.append(reference_s())
        self._t0 = time.perf_counter()


def in_ref_units(pieces: list[float], refs: list[float]) -> float:
    """Sum of the pieces, each over the mean of the references right before
    (``refs[i]``) and right after (``refs[i + 1]``) it."""
    return sum(p / (0.5 * (refs[i] + refs[i + 1])) for i, p in enumerate(pieces))
