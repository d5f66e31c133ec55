"""The traced benchmark's hooks still find every name they wrap.

``perfbench/spans.py`` wraps toolkit functions from outside the package;
a renamed function or a changed ``_bland_iterate`` signature lands in
``Tracer.missing`` and fails a traced run. This loads that file as it is
and checks that installing, tracing a strength query, a small campaign and
a ``grasp`` command (whose one LP witness the tracer keeps), and
uninstalling leave nothing missing and every name as it was; that
the benchmark's calibration, traced, leaves nothing missing either; and
that every toolkit call ``perfbench/child.py`` makes still binds to the
signature it calls.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import scipy.optimize

from tandemgrip import campath, cli, config, leadscrew, linkage, picksim, quantiles  # noqa: F401
from tandemgrip import simplexlp, wrench  # noqa: F401
from tandemgrip.config import shipped_calibration
from tandemgrip.picksim import DEFAULT_FIELD_STATS
from tandemgrip.wrench import ActuationMode, GraspScenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
CHILD = SPANS.with_name("child.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names():
    """Every attribute of every loaded toolkit module, of ``QuantileModel``
    and of ``scipy.optimize``, by identity."""
    owners = [mod for name, mod in sys.modules.items() if name.startswith("tandemgrip")]
    owners += [quantiles.QuantileModel, scipy.optimize]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_hooks_install_trace_and_uninstall(capsys, tmp_path):
    spans = load_spans()
    before = bound_names()
    tracer = spans.Tracer()
    witnesses = []
    try:
        spans.install(tracer, witnesses)
        assert tracer.missing == []
        assert wrench.predict_strength is not before[id(wrench)][1]["predict_strength"]
        model = shipped_calibration()
        # through the modules, whose names the tracer rebinds
        assert wrench.predict_strength(GraspScenario(37.5), model) > 0.0
        picksim.run_campaign(DEFAULT_FIELD_STATS, model, ActuationMode.FINGERS, trials=50,
                             seed=0, retries=1)
        assert witnesses == []
        # the benchmark's traced cli run: grasp's solve_pull keeps its witness
        assert cli.main(["--out", str(tmp_path), "grasp", "--mode", "dual", "--angle", "45"]) == 0
        assert '"strength_N"' in capsys.readouterr().out
        assert len(witnesses) == 1
        assert wrench.verify_witness(*witnesses[0]) == []
        assert tracer.missing == []
        calls = {name: rec["calls"] for name, rec in tracer.summary()["spans"].items()}
        assert calls["wrench.predict_strength"] == 1
        assert calls["picksim.run_campaign"] == 1
        assert calls["wrench.solve_pull"] == 1
    finally:
        tracer.uninstall()
    for owner, names in before.values():
        now = vars(owner)
        changed = [k for k, v in names.items() if now.get(k) is not v]
        assert changed == [], f"{getattr(owner, '__name__', owner)} not restored: {changed}"


def test_traced_calibration_misses_no_hook():
    # the benchmark's calibrate workload, the 13 authoritative rows: its
    # restarts are all dual simplex ones, which call no _bland_iterate, so
    # the phase hook sees at most two calls per solve_lp (the 27-row fit's
    # phase-2 restarts would trip it)
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, [])
        reference = wrench.reference_from_csv(config.data_text("grasp_reference.csv"))
        wrench.calibrate(reference, authoritative_only=True)
        assert tracer.missing == []
        calls = {name: rec["calls"] for name, rec in tracer.summary()["spans"].items()}
        assert calls["wrench.calibrate"] == 1
    finally:
        tracer.uninstall()


def test_benchmark_calls_bind_to_the_toolkit():
    # the benchmark is frozen: an option it passes that the toolkit no
    # longer takes would fail only in a benchmark run
    modules = {"picksim": picksim, "wrench": wrench, "config": config, "cli": cli}
    calls = []
    for node in ast.walk(ast.parse(CHILD.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            calls.append((f"{node.func.value.id}.{node.func.attr}", node))
    assert {"picksim.run_campaign", "wrench.calibrate", "wrench.reference_from_csv",
            "cli.main"} <= {name for name, _ in calls}
    for name, node in calls:
        owner, attr = name.split(".")
        fn = getattr(modules[owner], attr)
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{name} (line {node.lineno}): {exc}") from None
