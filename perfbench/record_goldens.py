"""Record the benchmark's golden outputs from the current source tree.

Usage: python3 perfbench/record_goldens.py

Writes perfbench/goldens.json with, for each pass size:
  - the SHA-256 of ``trials_to_csv`` of every campaign workload at the golden
    seed, for the whole pass and for its first ``prefix`` trials;
  - the parameters ``calibrate`` fits;
  - the stdout of every CLI command of the round.
Campaigns are recorded with one thread and must match the threaded run
from cold caches, or nothing is written. Only rerun this when a change is
meant to alter outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def record_size(runner: run.Runner, size: dict) -> dict:
    golden: dict = {}
    prefix = size["prefix"]
    wl = run.Campaigns
    golden[wl.name] = {}
    for mode, (threads_timed, _, _) in run.CAMPAIGN_OPTIONS.items():
        trials = wl.trials(size, mode)
        digests = []
        for threads in sorted({1, threads_timed}):
            task = {"task": "campaign",
                    "runs": [wl.run_spec(mode, trials, run.GOLDEN_SEED, threads, prefix)]}
            proc = runner.child(f"{mode}-threads{threads}", task)
            if proc.problem():
                raise SystemExit(proc.problem())
            r = proc.report["runs"][0]
            digests.append((r["sha256"], r["prefix_sha256"]))
        if len(set(digests)) != 1:
            raise SystemExit(f"{mode}: threaded log differs from one thread")
        golden[wl.name][mode] = {"trials": trials, "sha256": digests[0][0],
                                 "prefix_trials": prefix, "prefix_sha256": digests[0][1]}

    proc = runner.child("calibrate", {"task": "calibrate", "seed": run.GOLDEN_SEED,
                                      "max_iter": size["max_iter"]})
    if proc.problem():
        raise SystemExit(proc.problem())
    golden["calibrate"] = {"max_iter": size["max_iter"], "params": proc.report["params"]}

    golden["cli"] = {}
    for name, args in run.cli_commands(run.GOLDEN_SEED):
        proc = runner.spawn(name, [sys.executable, "-m", "tandemgrip.cli",
                                   "--out", str(runner.work / "cli"), *args])
        if proc.problem():
            raise SystemExit(proc.problem())
        golden["cli"][name] = proc.stdout
    return golden


def main() -> int:
    run.require_checkout_package()
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / f"record-{os.getpid()}"
    work.mkdir()
    try:
        runner = run.Runner(work)
        doc = {
            "golden_seed": run.GOLDEN_SEED,
            "source_sha256": run.source_digest(),
        }
        for size_name, size in run.SIZES.items():
            doc[size_name] = record_size(runner, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
