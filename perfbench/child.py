"""One fresh process of the benchmark: a set-up probe, a campaign, a fit or a
traced CLI command.

Usage: python3 perfbench/child.py TASK_JSON REPORT_PATH

Every task starts cold, because users pay the cold caches on every
``tandemgrip`` call. The task's JSON report is written to REPORT_PATH;
stdout is left to the CLI command of a ``cli`` task.
"""

import time

T_START_NS = time.perf_counter_ns()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import hostref  # noqa: E402  (stdlib and numpy only)
import spans  # noqa: E402  (stdlib only)

EVALS_PER_PIECE = 30    # calibrate objective evaluations between two references


def _import_toolkit(tracer):
    """Import every toolkit module, as ``tandemgrip`` on the command line does."""
    t0 = time.perf_counter()
    with tracer.region("bench.import") if tracer else contextlib.nullcontext():
        import tandemgrip.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    here = Path(sys.modules["tandemgrip"].__file__).resolve().parent
    if here != (SRC / "tandemgrip").resolve():
        raise SystemExit(f"imported tandemgrip from {here}, not from {SRC}")
    return import_s


def _finish_trace(tracer, witnesses, end_ns):
    from tandemgrip import wrench

    summary = tracer.summary()
    t0 = time.perf_counter()
    failures = sum(1 for contacts, sol in witnesses if wrench.verify_witness(contacts, sol))
    summary["verify_witness_s"] = time.perf_counter() - t0
    summary["witnesses"] = len(witnesses)
    summary["witness_failures"] = failures
    summary["inprocess_ns"] = end_ns - T_START_NS
    summary["missing_hooks"] = sorted(set(tracer.missing))
    tracer.uninstall()
    return summary


def task_probe(task):
    """Fresh process to ready: imports, default config, shipped calibration
    and the reference parse."""
    import_s = _import_toolkit(None)
    from tandemgrip import config, wrench

    t0 = time.perf_counter()
    config.default_config()
    config.shipped_calibration()
    text = config.data_text("grasp_reference.csv")
    config_s = time.perf_counter() - t0
    wrench.reference_from_csv(text)
    return {"ready_monotonic": time.monotonic(), "import_s": import_s, "config_s": config_s}


def _trials_digest(log, prefix):
    from tandemgrip.picksim import trials_to_csv

    lines = trials_to_csv(log).splitlines(keepends=True)
    full = hashlib.sha256("".join(lines).encode()).hexdigest()
    head = hashlib.sha256("".join(lines[:prefix + 1]).encode()).hexdigest()
    return full, head


def task_campaign(task):
    """One or more campaigns, each from cold picksim caches. Untraced, each
    campaign is a piece between host references."""
    tracer = spans.Tracer() if task.get("trace") else None
    witnesses: list = []
    _import_toolkit(tracer)
    from tandemgrip import config, picksim
    from tandemgrip.wrench import ActuationMode

    if tracer:
        spans.install(tracer, witnesses)
    model = config.shipped_calibration()
    cache = getattr(picksim, "_strength_cached", None)
    caches = [f for f in vars(picksim).values() if hasattr(f, "cache_clear")]
    pieces = None if tracer else hostref.Pieces()
    runs = []
    for run in task["runs"]:
        for c in caches:
            c.cache_clear()
        occlusion = picksim.LEAF_OCCLUSION_FAIL_PROB if run["occlusion"] else 0.0
        if pieces:
            pieces.start()
        t0 = time.perf_counter()
        result = picksim.run_campaign(
            picksim.DEFAULT_FIELD_STATS, model, ActuationMode(run["mode"]),
            trials=run["trials"], seed=run["seed"], threads=run["threads"],
            occlusion_fail_prob=occlusion, retries=run["retries"],
        )
        wall_s = time.perf_counter() - t0
        end_ns = time.perf_counter_ns()
        if pieces:
            pieces.cut()
        full, head = _trials_digest(result.log, run["prefix"])
        bad = sum(1 for r in result.log if not (math.isfinite(r.strength) and r.strength >= 0.0))
        runs.append({
            "wall_s": wall_s,
            "trials": result.trials,
            "logged": len(result.log),
            "breakdown_sum": sum(result.breakdown.values()),
            "bad_strengths": bad,
            "success_rate": result.success_rate,
            "sha256": full,
            "prefix_sha256": head,
            "cache_hits": cache.cache_info().hits if cache is not None else 0,
        })
    report = {"runs": runs}
    if tracer:
        report["trace"] = _finish_trace(tracer, witnesses, end_ns)
        report["trace"]["cache_hits"] = sum(r["cache_hits"] for r in runs)
    else:
        report["refs_s"] = pieces.refs
    return report


def _cut_every(pieces, n, minimize):
    """``minimize`` whose objective cuts ``pieces`` every ``n`` evaluations."""
    def cutting(fun, x0, *args, **kwargs):
        calls = 0

        def objective(x):
            nonlocal calls
            calls += 1
            if calls % n == 0:
                pieces.cut()
            return fun(x)
        return minimize(objective, x0, *args, **kwargs)
    return cutting


def task_calibrate(task):
    """``calibrate`` on the bundled reference, authoritative rows only, with
    the rows in an order drawn from the seed (the fit does not depend on it).
    Untraced, the fit is cut into pieces between host references every
    ``EVALS_PER_PIECE`` objective evaluations."""
    tracer = spans.Tracer() if task.get("trace") else None
    witnesses: list = []
    _import_toolkit(tracer)
    from tandemgrip import config, wrench

    if tracer:
        spans.install(tracer, witnesses)
    reference = wrench.reference_from_csv(config.data_text("grasp_reference.csv"))
    rows = list(reference.rows)
    random.Random(task["seed"]).shuffle(rows)
    reference = wrench.ReferenceMeasurements(rows=tuple(rows))
    pieces = None
    if not tracer:
        pieces = hostref.Pieces()
        wrench.minimize = _cut_every(pieces, EVALS_PER_PIECE, wrench.minimize)
        pieces.start()
    t0 = time.perf_counter()
    result = wrench.calibrate(reference, authoritative_only=True, max_iter=task["max_iter"])
    wall_s = time.perf_counter() - t0
    end_ns = time.perf_counter_ns()
    if pieces:
        pieces.cut()
        wall_s = sum(pieces.pieces)
    report = {
        "wall_s": wall_s,
        "params": result.params.to_dict(),
        "mean_sq_rel_error": result.mean_sq_rel_error,
        "residuals_finite": all(math.isfinite(r.predicted) and r.predicted >= 0.0
                                for r in result.residuals),
    }
    if tracer:
        report["trace"] = _finish_trace(tracer, witnesses, end_ns)
    else:
        report["pieces_s"] = pieces.pieces
        report["refs_s"] = pieces.refs
    return report


def task_cli(task):
    """A traced ``tandemgrip`` command; its stdout is the command's own."""
    tracer = spans.Tracer()
    witnesses: list = []
    import_s = _import_toolkit(tracer)
    from tandemgrip import cli

    spans.install(tracer, witnesses)
    code = cli.main(task["argv"])
    sys.stdout.flush()
    report = {"exit_code": code, "import_s": import_s}
    report["trace"] = _finish_trace(tracer, witnesses, time.perf_counter_ns())
    return report


TASKS = {"probe": task_probe, "campaign": task_campaign,
         "calibrate": task_calibrate, "cli": task_cli}


def main(argv):
    task = json.loads(argv[1])
    report = TASKS[task["task"]](task)
    Path(argv[2]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
