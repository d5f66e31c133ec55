"""Self-test of the benchmark at tiny sizes.

Usage: python3 perfbench/selftest.py

Checks that:
  1. every metric named in BENCHMARK.json is emitted, with its unit, on every
     workload, in the untraced and the traced run, and the outputs check out;
  2. a corrupted golden output makes the run fail;
  3. the per-layer counts repeat exactly across two traced runs;
  4. without the toolkit's sources next to it, the benchmark refuses to run.
Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, *extra: str, cwd: Path = run.ROOT,
          seed: int = SEED) -> tuple[int, dict | None]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def emits_all(result: dict | None, section: str) -> bool:
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    return got == want and all(isinstance(v["value"], (int, float))
                               for v in result["metrics"].values())


def counts(result: dict) -> dict:
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    return {k: v["value"] for k, v in result["metrics"].items() if units[k] == "count"}


def corrupted_goldens() -> Path:
    doc = json.loads(run.GOLDENS.read_text())
    tiny = doc["tiny"]
    dual = tiny["campaign"]["dual"]
    dual["prefix_sha256"] = dual["prefix_sha256"][::-1]
    params = tiny["calibrate"]["params"]
    params["mu_pad"] *= 1.0 + 1e-5
    tiny["cli"]["stats"] = tiny["cli"]["stats"].replace("median", "medain")
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"corrupted-goldens-{os.getpid()}.json"
    path.write_text(json.dumps(doc))
    return path


def main() -> int:
    run.require_checkout_package()
    for workload in run.WORKLOADS:
        code, plain = bench(workload, 0)
        check(code == 0 and emits_all(plain, "end_to_end") and plain["correct"]
              and plain["failed"] == 0,
              f"{workload}: untraced run emits every end-to-end metric and checks out")
        code1, traced1 = bench(workload, 1)
        code2, traced2 = bench(workload, 1)
        check(code1 == 0 and emits_all(traced1, "per_layer") and traced1["correct"],
              f"{workload}: traced run emits every per-layer metric and checks out")
        check(traced1 is not None and traced2 is not None
              and counts(traced1) == counts(traced2),
              f"{workload}: per-layer counts repeat across two traced runs")
        if traced1 is not None:
            wf = traced1["metrics"]["wrench.witness_failures"]["value"]
            check(wf == 0, f"{workload}: no LP witness fails")

    bad = corrupted_goldens()
    try:
        for workload in run.WORKLOADS:
            code, result = bench(workload, 0, "--goldens", str(bad))
            check(code != 0 and result is not None and not result["correct"]
                  and result["failed"] > 0,
                  f"{workload}: a corrupted golden fails the run")
    finally:
        bad.unlink()

    bare = run.OUT / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result = bench("campaign", 0, cwd=bare)
        check(code != 0 and result is None,
              "without the sources, the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("passed" if not failures else f"FAILED: {len(failures)} checks"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
