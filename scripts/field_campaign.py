#!/usr/bin/env python3
"""Monte-Carlo pick campaigns against the field statistics for each actuation
mode, plus the leaf-occlusion variant.

Runs ``tandemgrip simulate`` (shipped calibration, built-in field statistics,
1000 trials, seed 0) once per entry of RUNS, each writing campaign.json and
campaign_trials.csv into its own results/campaign/<run>/, then prints a
summary.
"""

import contextlib
import io
import json
from pathlib import Path

from tandemgrip import cli

OUT = Path(__file__).resolve().parent.parent / "results" / "campaign"
TRIALS = 1000
SEED = 0
RUNS = {
    "suction": ["--mode", "suction"],
    "fingers": ["--mode", "fingers"],
    "dual": ["--mode", "dual"],
    "dual_leaf_occlusion": ["--mode", "dual", "--occlusion"],
}


def _run(name: str, options: list[str]) -> dict:
    """Run one campaign into OUT/name, its JSON echo silenced; return its JSON."""
    out = OUT / name
    argv = ["--out", str(out), "simulate", "--trials", str(TRIALS), "--seed", str(SEED),
            *options]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"tandemgrip {' '.join(argv[2:])} exited with {code}")
    return json.loads((out / "campaign.json").read_text())


def main() -> None:
    for name, options in RUNS.items():
        doc = _run(name, options)
        print(f"{name:19s} success {doc['success_rate']:6.1%}  {doc['breakdown']}")


if __name__ == "__main__":
    main()
