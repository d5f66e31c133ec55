#!/usr/bin/env python3
"""Regenerate the power-transmission study: force ratio, bar angle, and motor
torque over the clamp region, plus the anchored clamp-force (bruising) curve.

Runs ``tandemgrip --format svg transmission`` and ``tandemgrip --format svg
bruise`` with their defaults (bundled config, 0.1 mm step, 30 N pad force,
18 N anchored at x = 58 mm), which write transmission.csv/.svg and
bruise.csv/.svg into results/transmission/, then prints a summary.
"""

import contextlib
import io
from pathlib import Path

from tandemgrip import cli
from tandemgrip.leadscrew import DEFAULT_SCREW, back_drive_torque, is_self_locking

OUT = Path(__file__).resolve().parent.parent / "results" / "transmission"


def _run(command: str) -> list[list[str]]:
    """Run one command into OUT, its CSV echo silenced; return its CSV rows."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", str(OUT), "--format", "svg", command])
    if code != 0:
        raise SystemExit(f"tandemgrip {command} exited with {code}")
    lines = (OUT / f"{command}.csv").read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def main() -> None:
    rows = _run("transmission")
    peak = max(rows, key=lambda r: float(r[8]))
    print(f"peak motor torque {float(peak[8]):.4f} N*m at x = {float(peak[0])} mm")
    print(f"force ratio at stop: {float(rows[-1][6]):.4f}")
    clamp = _run("bruise")
    print(f"clamp force at stop: {float(clamp[-1][1]):.2f} N (threshold 30 N)")
    print(f"screw self-locking: {is_self_locking(DEFAULT_SCREW)} "
          f"(lowering torque at 100 N: {back_drive_torque(DEFAULT_SCREW, 100.0):+.4f} N*m)")


if __name__ == "__main__":
    main()
