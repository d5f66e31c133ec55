"""tandemgrip benchmark: pick campaigns, calibration and the cold CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: campaign, calibrate, cli (see README.md in this directory).
Every pass runs in fresh processes and every campaign clears picksim's
caches, so every in-package cache starts cold, as it does on each
``tandemgrip`` call. Passes repeat while another one fits in ``--seconds``.
Timings are medians over the run's samples, in host reference units
(hostref.py): a shared host's speed can drift too much for seconds to be
compared between runs.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the tracing
overhead and the share of in-process time covered by spans. The last line
of stdout is the JSON result; the lines before it are a readable summary.
The exit code is 0 when every output checked out, 1 when one did not or
the run failed, and 2 when the toolkit cannot be imported from this
checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

GOLDEN_SEED = 0
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 140.0        # no pass starts that would end past this, even traced

# pass sizes; "tiny" is for the self-test only
SIZES = {
    "full": {"dual_trials": 400, "mixed_trials": 200, "reps": 3, "prefix": 200,
             "max_iter": 400},
    "tiny": {"dual_trials": 40, "mixed_trials": 30, "reps": 2, "prefix": 20,
             "max_iter": 8},
}
# the campaigns of one rep: mode -> (threads, leaf occlusion, retries)
CAMPAIGN_OPTIONS = {
    "dual": (1, False, 0),
    "suction": (2, True, 1),
    "fingers": (2, True, 1),
}
CALIBRATE_REL_TOL = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "cmd_p50_ref": "ref", "cmd_max_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "simplexlp.solve_lp_s": "s",
    "simplexlp.solve_lp.calls": "count",
    "simplexlp.phase1_s": "s",
    "simplexlp.phase2_s": "s",
    "simplexlp.phase1_pivots": "count",
    "simplexlp.phase2_pivots": "count",
    "wrench.predict_strength_s": "s",
    "wrench.predict_strength.calls": "count",
    "wrench.build_contacts_s": "s",
    "wrench.solve_pull_self_s": "s",
    "wrench.calibrate.objective_evals": "count",
    "wrench.calibrate.nm_iterations": "count",
    "wrench.calibrate.nm_self_s": "s",
    "wrench.witness_failures": "count",
    "wrench.verify_witness_s": "s",
    "picksim.self_s": "s",
    "picksim.strength_queries": "count",
    "picksim.strength_cache_hits": "count",
    "quantiles.sample.calls": "count",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "config.load_s": "s",
    "campath.pose_solves": "count",
    "campath.build_default_tracks_s": "s",
    "campath.validate_path_s": "s",
    "campath.poses_to_csv_s": "s",
    "linkage.sweep_transmission_s": "s",
    "linkage.solve_geometry.calls": "count",
    "leadscrew.torque_for_thrust.calls": "count",
    "bench.trace_overhead_pct": "%",
    "bench.span_coverage_pct": "%",
}


class BenchError(Exception):
    """The benchmark itself cannot go on (not a wrong toolkit output)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Proc:
    """One finished child process."""

    def __init__(self, name, seconds, code, rss_mb, stdout, stderr, report):
        self.name = name
        self.seconds = seconds      # from spawn to exit
        self.code = code
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr
        self.report = report        # child.py's JSON report, or None

    def problem(self) -> str | None:
        if self.code != 0:
            tail = self.stderr.strip().splitlines()[-3:]
            return f"{self.name}: exit code {self.code}: {' | '.join(tail)}"
        return None


class Runner:
    """Spawns children inside a private work directory and times them."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._n = 0

    def spawn(self, name: str, argv: list[str], report: bool = False) -> Proc:
        """Run ``argv`` to completion; with ``report``, the path of a JSON
        report for the child to write is appended to it."""
        self._n += 1
        out_path = self.work / f"{self._n}.out"
        err_path = self.work / f"{self._n}.err"
        rep_path = self.work / f"{self._n}.json"
        if report:
            argv = [*argv, str(rep_path)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = None
        if proc.returncode == 0 and rep_path.exists():
            report = json.loads(rep_path.read_text())
        return Proc(name, seconds, proc.returncode, usage.ru_maxrss / 1024.0,
                    out_path.read_text(), err_path.read_text(), report)

    def child(self, name: str, task: dict) -> Proc:
        return self.spawn(name, [sys.executable, str(HERE / "child.py"), json.dumps(task)],
                          report=True)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Pass:
    """What one pass measured and what it got wrong. A sample is one
    operation group: a rep of the campaigns, a fit or a round of the CLI
    commands. ``samples`` holds its seconds and, untraced, ``ratios`` its
    time in host reference units (see hostref.py); ``cmds`` holds the
    latter for each part of a sample by name."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.samples: list[float] = []
        self.ratios: list[float] = []
        self.cmds: dict[str, list[float]] = {}
        self.ops = 0
        self.ops_per_sample = 0
        self.failed = 0
        self.procs: list[Proc] = []
        self.traces: list[dict] = []
        self.problems: list[str] = []

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.problems.append(why)

    def add_cmd(self, name: str, ratio: float) -> None:
        self.cmds.setdefault(name, []).append(ratio)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Campaigns:
    """Monte-Carlo pick campaigns. A rep runs every campaign of
    ``CAMPAIGN_RUNS`` once, each from cold caches; a pass is one fresh
    process that runs ``reps`` reps (one when traced)."""

    name = "campaign"

    def __init__(self):
        self._sha: dict[str, tuple[str, str]] = {}   # mode -> digests of the first rep

    @staticmethod
    def run_spec(mode, trials, seed, threads, prefix):
        _, occlusion, retries = CAMPAIGN_OPTIONS[mode]
        return {"mode": mode, "trials": trials, "seed": seed, "threads": threads,
                "occlusion": occlusion, "retries": retries, "prefix": prefix}

    @staticmethod
    def trials(size, mode) -> int:
        return size["dual_trials"] if mode == "dual" else size["mixed_trials"]

    def run_pass(self, ctx, traced: bool) -> Pass:
        p = Pass(traced)
        size = ctx.size
        reps = 1 if traced else size["reps"]
        runs = [self.run_spec(mode, self.trials(size, mode), ctx.seed,
                              CAMPAIGN_OPTIONS[mode][0], size["prefix"])
                for _ in range(reps) for mode in CAMPAIGN_OPTIONS]
        p.ops_per_sample = sum(self.trials(size, mode) for mode in CAMPAIGN_OPTIONS)
        p.ops = reps * p.ops_per_sample
        proc = ctx.runner.child("simulate", {"task": "campaign", "runs": runs, "trace": traced})
        p.procs.append(proc)
        why = proc.problem() or (None if proc.report else f"{proc.name}: no report")
        if why:
            p.fail(p.ops, why)
            return p
        if traced:
            p.traces.append(proc.report["trace"])
        results, k = proc.report["runs"], len(CAMPAIGN_OPTIONS)
        walls = [r["wall_s"] for r in results]
        for i in range(0, len(results), k):
            p.samples.append(sum(walls[i:i + k]))
            if not traced:
                refs = proc.report["refs_s"]
                parts = [hostref.in_ref_units([walls[j]], refs[j:j + 2]) for j in range(i, i + k)]
                p.ratios.append(sum(parts))
                for run, part in zip(runs[i:i + k], parts):
                    p.add_cmd(run["mode"], part)
            for run, r in zip(runs[i:i + k], results[i:i + k]):
                self._check(ctx, p, run, r)
        return p

    def _check(self, ctx, p: Pass, run, r) -> None:
        n, mode = run["trials"], run["mode"]
        if r["logged"] != n or r["breakdown_sum"] != n:
            p.fail(n, f"{mode}: breakdown sums to {r['breakdown_sum']}, "
                      f"log has {r['logged']}, expected {n}")
            return
        if r["bad_strengths"]:
            p.fail(r["bad_strengths"], f"{mode}: {r['bad_strengths']} non-finite or negative strengths")
        digests = (r["sha256"], r["prefix_sha256"])
        first = self._sha.setdefault(mode, digests)
        if digests != first:
            p.fail(n, f"{mode}: trial log differs from the first rep at the same seed")
        if ctx.seed == GOLDEN_SEED:
            want = ctx.golden[self.name][mode]["sha256"]
            if r["sha256"] != want:
                p.fail(n, f"{mode}: trial log SHA-256 {r['sha256'][:12]} != golden {want[:12]}")

    def final_check(self, ctx) -> Pass:
        """Untimed, from cold caches: the golden prefix of every mode at the
        golden seed and, for the threaded modes, threads=1 against the timed
        threaded reps at the run's seed."""
        p = Pass(False)
        prefix = ctx.size["prefix"]
        runs, expect = [], []
        for mode, (threads, _, _) in CAMPAIGN_OPTIONS.items():
            runs.append(self.run_spec(mode, prefix, GOLDEN_SEED, threads, prefix))
            expect.append((mode, "golden prefix", ctx.golden[self.name][mode]["prefix_sha256"]))
            if threads > 1 and mode in self._sha:
                runs.append(self.run_spec(mode, prefix, ctx.seed, 1, prefix))
                expect.append((mode, f"threads=1 vs threads={threads}", self._sha[mode][1]))
        proc = ctx.runner.child(f"check-{self.name}", {"task": "campaign", "runs": runs})
        p.procs.append(proc)
        p.ops = prefix * len(runs)
        why = proc.problem() or (None if proc.report else f"{proc.name}: no report")
        if why:
            p.fail(p.ops, why)
            return p
        for r, (mode, what, want) in zip(proc.report["runs"], expect):
            if r["sha256"] != want or r["breakdown_sum"] != prefix or r["bad_strengths"]:
                p.fail(prefix, f"{mode}: {what}: first {prefix} trials differ")
        return p


class Calibrate:
    """``tandemgrip calibrate``: Nelder-Mead over the 13 authoritative rows."""

    name = "calibrate"

    def run_pass(self, ctx, traced: bool) -> Pass:
        p = Pass(traced)
        task = {"task": "calibrate", "seed": ctx.seed, "max_iter": ctx.size["max_iter"],
                "trace": traced}
        proc = ctx.runner.child("calibrate", task)
        p.procs.append(proc)
        p.ops = 1
        why = proc.problem() or (None if proc.report else "calibrate: no report")
        if why:
            p.fail(1, why)
            return p
        r = proc.report
        p.ops_per_sample = 1
        p.samples.append(r["wall_s"])
        if not traced:
            p.ratios.append(hostref.in_ref_units(r["pieces_s"], r["refs_s"]))
            p.add_cmd("calibrate", p.ratios[-1])
        if traced:
            p.traces.append(r["trace"])
        want = ctx.golden["calibrate"]["params"]
        bad = [k for k, v in want.items()
               if not math.isfinite(r["params"].get(k, math.nan))
               or _rel_err(r["params"][k], v) > CALIBRATE_REL_TOL]
        if bad:
            p.fail(1, f"calibrate: params {bad} differ from golden by > {CALIBRATE_REL_TOL}")
        elif not (math.isfinite(r["mean_sq_rel_error"]) and r["residuals_finite"]):
            p.fail(1, "calibrate: non-finite error or residual")
        return p

    def final_check(self, ctx) -> Pass | None:
        return None


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The CLI round. The suction grasp takes its angle and offset from the
    seed; a rotational pull ignores the angle and suction contacts ignore
    the offset, so its output must not change with the seed."""
    rng = random.Random(seed)
    angle = f"{rng.uniform(0.0, 90.0):.3f}"
    offset = f"{rng.uniform(0.0, 20.0):.3f}"
    return [
        ("transmission", ["transmission"]),
        ("bruise", ["bruise"]),
        ("grasp-dual-45", ["grasp", "--mode", "dual", "--angle", "45"]),
        ("grasp-suction-rotational", ["grasp", "--mode", "suction", "--pull", "rotational",
                                      "--angle", angle, "--offset", offset]),
        ("stats", ["stats"]),
        ("campath", ["campath"]),
    ]


class Cli:
    """Short ``tandemgrip`` commands, each timed from process start."""

    name = "cli"

    def run_pass(self, ctx, traced: bool) -> Pass:
        """One round on one CPU. Untraced, a host reference runs in this
        process before the first command and after every command; on the
        same CPU as the commands, it follows that CPU's speed. The commands
        are single-threaded."""
        with hostref.one_cpu():
            return self._round(ctx, traced)

    def _round(self, ctx, traced: bool) -> Pass:
        p = Pass(traced)
        out = ctx.runner.work / "cli"
        refs = [] if traced else [hostref.reference_s()]
        for name, args in cli_commands(ctx.seed):
            argv = ["--out", str(out), *args]
            if traced:
                proc = ctx.runner.child(name, {"task": "cli", "argv": argv})
            else:
                proc = ctx.runner.spawn(name, [sys.executable, "-m", "tandemgrip.cli", *argv])
                refs.append(hostref.reference_s())
                p.add_cmd(name, hostref.in_ref_units([proc.seconds], refs[-2:]))
            p.procs.append(proc)
            p.ops += 1
            why = proc.problem()
            if why is None and traced and (proc.report is None or proc.report["exit_code"] != 0):
                why = f"{name}: traced command failed"
            if why:
                p.fail(1, why)
                continue
            if traced:
                p.traces.append(proc.report["trace"])
            if proc.stdout != ctx.golden["cli"][name]:
                p.fail(1, f"{name}: stdout differs from golden")
            elif name.startswith("grasp"):
                strength = json.loads(proc.stdout)["strength_N"]
                if not (math.isfinite(strength) and strength >= 0.0):
                    p.fail(1, f"{name}: strength {strength}")
        p.ops_per_sample = p.ops
        p.samples.append(sum(proc.seconds for proc in p.procs))
        if not traced:
            p.ratios.append(hostref.in_ref_units([proc.seconds for proc in p.procs], refs))
        return p

    def final_check(self, ctx) -> Pass | None:
        return None


# constructors: a workload keeps the digests of its first pass
WORKLOADS = {"campaign": Campaigns, "calibrate": Calibrate, "cli": Cli}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one pass, summed over its processes."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for t in traces:
        sp, counts = t["spans"], t["counts"]

        def total(n):
            return sp.get(n, {}).get("total_s", 0.0)

        def self_s(n):
            return sp.get(n, {}).get("self_s", 0.0)

        def calls(n):
            return sp.get(n, {}).get("calls", 0)

        add = {
            "simplexlp.solve_lp_s": total("simplexlp.solve_lp"),
            "simplexlp.solve_lp.calls": calls("simplexlp.solve_lp"),
            "simplexlp.phase1_s": total("simplexlp.phase1"),
            "simplexlp.phase2_s": total("simplexlp.phase2"),
            "simplexlp.phase1_pivots": counts.get("simplexlp.phase1_pivots", 0),
            "simplexlp.phase2_pivots": counts.get("simplexlp.phase2_pivots", 0),
            "wrench.predict_strength_s": total("wrench.predict_strength"),
            "wrench.predict_strength.calls": calls("wrench.predict_strength"),
            "wrench.build_contacts_s": total("wrench.build_contacts"),
            "wrench.solve_pull_self_s": self_s("wrench.solve_pull"),
            "wrench.calibrate.objective_evals": calls("wrench.calibrate.objective"),
            "wrench.calibrate.nm_iterations": counts.get("wrench.calibrate.nm_iterations", 0),
            "wrench.calibrate.nm_self_s": self_s("wrench.calibrate.nm"),
            "wrench.witness_failures": t["witness_failures"],
            "wrench.verify_witness_s": t["verify_witness_s"],
            # run_campaign minus strength queries; quantile draws happen inside trials
            "picksim.self_s": (self_s("picksim.run_campaign") + self_s("picksim.trial")
                               + total("quantiles.sample")),
            "picksim.strength_queries": calls("picksim.strength_query"),
            "picksim.strength_cache_hits": t.get("cache_hits", 0),
            "quantiles.sample.calls": calls("quantiles.sample"),
            "cli.main_s": total("cli.main"),
            "campath.pose_solves": calls("campath.solve_finger_pose"),
            "campath.build_default_tracks_s": total("campath.build_default_tracks"),
            "campath.validate_path_s": total("campath.validate_path"),
            "campath.poses_to_csv_s": total("campath.poses_to_csv"),
            "linkage.sweep_transmission_s": total("linkage.sweep_transmission"),
            "linkage.solve_geometry.calls": calls("linkage.solve_geometry"),
            "leadscrew.torque_for_thrust.calls": calls("leadscrew.torque_for_thrust"),
        }
        for k, v in add.items():
            out[k] += v
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(setup_s: float, passes: list[Pass]) -> dict[str, float]:
    """Medians over the untraced samples of the run; ``wall_s`` and
    ``trials_per_s`` in seconds go to the summary only."""
    per_cmd: dict[str, list[float]] = {}
    for p in passes:
        for name, ratios in p.cmds.items():
            per_cmd.setdefault(name, []).extend(ratios)
    cmd_ref = [_median(v) for v in per_cmd.values()]
    wall_s = _median([s for p in passes for s in p.samples])
    return {
        "setup_s": setup_s,
        "wall_ref": _median([r for p in passes for r in p.ratios]),
        "cmd_p50_ref": _median(cmd_ref),
        "cmd_max_ref": max(cmd_ref),
        "peak_rss_mb": _median([max(proc.rss_mb for proc in p.procs) for p in passes]),
        "wall_s": wall_s,
        "trials_per_s": _ratio(passes[0].ops_per_sample, wall_s),
    }


def per_layer(passes: list[Pass], layers: list[dict], probes: list[Proc]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {k: _median([m[k] for m in layers]) for k in PER_LAYER_UNITS}
    out["cli.import_s"] = _median([pr.report["import_s"] for pr in probes])
    out["config.load_s"] = _median([pr.report["config_s"] for pr in probes])
    base = _median([s for p in plain for s in p.samples])
    out["bench.trace_overhead_pct"] = 100.0 * (
        _ratio(_median([s for p in traced for s in p.samples]), base) - 1.0)
    coverage = []
    for p in traced:
        inproc = sum(t["inprocess_ns"] for t in p.traces)
        coverage.append(100.0 * _ratio(sum(t["root_ns"] for t in p.traces), inproc))
    out["bench.span_coverage_pct"] = _median(coverage)
    return out


def check_traces(passes: list[Pass], layers: list[dict]) -> None:
    """Fail a traced pass whose hooks are missing or changed, whose LP
    witnesses fail ``verify_witness``, or whose counts differ from the first
    traced pass's. ``layers`` holds the metrics of the traced passes. A run
    with fewer than two traced passes cannot compare counts, so it fails."""
    traced = [p for p in passes if p.traced]
    count_keys = [k for k, u in PER_LAYER_UNITS.items() if u == "count"]
    if len(traced) < 2:
        last = passes[-1]
        last.fail(last.ops - last.failed,
                  "trace: fewer than two traced passes fit in the run, counts not compared")
    for p, m in zip(traced, layers):
        missing = sorted({h for t in p.traces for h in t["missing_hooks"]})
        differ = [k for k in count_keys if m[k] != layers[0][k]]
        why = []
        if missing:
            why.append(f"trace: hooks missing or changed, their metrics are not "
                       f"trustworthy: {missing}")
        if m["wrench.witness_failures"]:
            why.append(f"trace: {m['wrench.witness_failures']:.0f} LP witnesses "
                       "fail verify_witness")
        if differ:
            why.append(f"trace: counts differ from the first traced pass: {differ}")
        for w in why:
            p.fail(p.ops - p.failed, w)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "tandemgrip"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "source_sha256": source_digest(),
    }


def require_checkout_package() -> None:
    """Refuse to run unless ``tandemgrip`` imports from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    try:
        import tandemgrip
    except ImportError as exc:
        print(f"perfbench: cannot import tandemgrip from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    here = Path(tandemgrip.__file__).resolve().parent
    if here != (SRC / "tandemgrip").resolve():
        print(f"perfbench: tandemgrip imports from {here}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

class Context:
    def __init__(self, seed, size, golden, runner):
        self.seed = seed
        self.size = size
        self.golden = golden
        self.runner = runner


def measure(workload, ctx: Context, seconds: float, trace: bool) -> dict:
    runner = ctx.runner
    probes, ready_s, ready_ref = [], [], []

    def probe():
        """A fresh process to ready, between two host references on one CPU."""
        with hostref.one_cpu():
            refs = [hostref.reference_s()]
            t0 = time.monotonic()
            proc = runner.child("probe", {"task": "probe"})
            refs.append(hostref.reference_s())
        if proc.problem() or proc.report is None:
            raise BenchError(proc.problem() or "probe: no report")
        probes.append(proc)
        ready_s.append(proc.report["ready_monotonic"] - t0)
        ready_ref.append(hostref.in_ref_units(ready_s[-1:], refs))

    # a set-up probe before every pass, so the probes spread over the run;
    # no pass starts that would end past ``seconds`` if it took as long as
    # the last one; a traced run needs two untraced and two traced passes,
    # so the counts of two traced passes can be compared
    passes: list[Pass] = []
    begin = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        probe()
        passes.append(workload.run_pass(ctx, traced))
        now = time.monotonic()
        next_end = now - begin + (now - t0)
        if next_end > RUN_BUDGET_S or (next_end > seconds and (not trace or len(passes) >= 4)):
            break
    measured_s = time.monotonic() - begin
    setup_s = _median(ready_ref) * hostref.NOMINAL_REF_S
    checks = workload.final_check(ctx)
    counted = passes + ([checks] if checks else [])
    if trace:
        layers = [layer_metrics(p.traces) for p in passes if p.traced]
        check_traces(passes, layers)

    result = {
        "passes": len(passes),
        "measured_s": measured_s,
        "attempted": sum(p.ops for p in counted),
        "failed": sum(p.failed for p in counted),
        "problems": [w for p in counted for w in p.problems],
        "setup_samples_s": ready_s,
        "setup_samples_ref": ready_ref,
        "setup_measured_s": _median(ready_s),
        "samples": sum(len(p.samples) for p in passes),
        "pass_samples_s": [p.samples for p in passes],
        "pass_samples_ref": [p.ratios for p in passes],
        "pass_traced": [p.traced for p in passes],
        "commands": [[(pr.name, pr.seconds, pr.rss_mb) for pr in p.procs] for p in passes],
    }
    if trace:
        result["span_summaries"] = [p.traces for p in passes if p.traced]
        result["missing_hooks"] = sorted({h for p in passes for t in p.traces
                                          for h in t["missing_hooks"]})
        metrics = per_layer(passes, layers, probes)
        result["metrics"] = {k: (metrics[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
        result["end_to_end_untraced"] = end_to_end(
            setup_s, [p for p in passes if not p.traced])
    else:
        e2e = end_to_end(setup_s, passes)
        result["metrics"] = {k: (e2e[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
        result["wall_s"], result["trials_per_s"] = e2e["wall_s"], e2e["trials_per_s"]
    return result


def print_summary(name, args, env, result) -> None:
    print(f"perfbench {name} seed={args.seed} trace={args.trace}: "
          f"{result['passes']} passes in {result['measured_s']:.1f} s "
          f"({env['nproc']} CPUs, {env['cpu_model']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, source {env['source_sha256'][:12]})")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<36} {value:>14.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':<36} {failed / attempted:>14.6g} ({failed} of {attempted} operations)")
    if not args.trace:
        print(f"  {'setup, seconds as measured':<36} {result['setup_measured_s']:>14.6g} s "
              f"(median of {len(result['setup_samples_s'])} probes)")
        print(f"  {'wall_s':<36} {result['wall_s']:>14.6g} s "
              f"(median of {result['samples']} samples)")
        if name == "campaign":
            print(f"  {'trials_per_s':<36} {result['trials_per_s']:>14.6g} 1/s")
    if args.trace and result["missing_hooks"]:
        print(f"  hooks missing or changed (the run fails): {result['missing_hooks']}")
    for why in result["problems"][:20]:
        print(f"  FAILED: {why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="pass sizes; 'tiny' is for the self-test")
    ap.add_argument("--goldens", type=Path, default=GOLDENS)
    args = ap.parse_args(argv)

    require_checkout_package()
    env = environment()
    golden = json.loads(args.goldens.read_text())[args.size]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        ctx = Context(args.seed, SIZES[args.size], golden, Runner(work))
        result = measure(WORKLOADS[args.workload](), ctx, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print_summary(args.workload, args, env, result)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
