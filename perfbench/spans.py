"""In-memory spans and counters, attached to the toolkit from outside.

The traced benchmark run wraps public functions of the toolkit's modules
(and two private simplex steps, to split the phases and count pivots)
without editing the package. Every wrapper records one span: name, start,
end and the span that caused it. Spans and counters live in per-thread
lists, so worker threads never contend for a lock and never lose an
update; they are merged once, after the pass, by ``summary``.

A span opened on a worker thread with no open span of its own is caused by
the innermost span open on the main thread at that moment (the campaign
that owns the thread pool).
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter

_clock = time.perf_counter_ns   # CLOCK_MONOTONIC: comparable across threads


class _ThreadState:
    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.lp_iterations = 0   # _bland_iterate calls inside the current solve_lp
        self.phase = 0


class Tracer:
    """Wrap module functions with spans; restore them with ``uninstall``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._main: _ThreadState | None = None
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
            if threading.current_thread() is threading.main_thread():
                self._main = st
        return st

    def _parent(self, st: _ThreadState) -> int:
        if st.stack:
            return st.stack[-1]
        main = self._main
        if main is not None and main is not st and main.stack:
            return main.stack[-1]
        return 0

    @contextlib.contextmanager
    def region(self, name: str):
        """Record one span, counted as a call of ``name``, around a block."""
        st = self._state()
        sid = next(self._ids)
        parent = self._parent(st)
        st.stack.append(sid)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            st.stack.pop()
            st.spans.append((sid, parent, name, t0, t1))
            st.counts[name] += 1

    def span(self, name: str, fn):
        """Return ``fn`` wrapped in a region named ``name``."""
        def wrapper(*args, **kwargs):
            with self.region(name):
                return fn(*args, **kwargs)
        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    # -- installing --------------------------------------------------------

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` everywhere it is bound.

        ``from module import name`` copies the function into the importing
        module, so every loaded ``tandemgrip`` module that holds the same
        object under the same name is rebound too.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(label)
            return
        new = make(orig)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, orig))
        if isinstance(owner, type):
            return
        for name, mod in list(sys.modules.items()):
            if mod is owner or not name.startswith("tandemgrip"):
                continue
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, new)
                self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- summarizing -------------------------------------------------------

    def spans(self) -> list[tuple[int, int, str, int, int]]:
        out = []
        for st in self._states:
            out.extend(st.spans)
        return out

    def counts(self) -> Counter:
        total: Counter = Counter()
        for st in self._states:
            total.update(st.counts)
        return total

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the union of its children's
        intervals, so children running in parallel threads are not
        subtracted twice.
        """
        spans = self.spans()
        children: dict[int, list[tuple[int, int]]] = {}
        for sid, parent, _name, t0, t1 in spans:
            children.setdefault(parent, []).append((t0, t1))
        out: dict[str, dict] = {}
        for sid, _parent, name, t0, t1 in spans:
            covered = _union_within(children.get(sid, ()), t0, t1)
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += (t1 - t0) * 1e-9
            rec["self_s"] += (t1 - t0 - covered) * 1e-9
        roots = [(t0, t1) for _sid, parent, _n, t0, t1 in spans if parent == 0]
        return {"spans": out, "counts": dict(self.counts()),
                "root_ns": _union_within(roots, -(1 << 62), 1 << 62)}


def _union_within(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# ---------------------------------------------------------------------------
# the toolkit's layers
# ---------------------------------------------------------------------------

def install(tracer: Tracer, witnesses: list) -> None:
    """Wrap every traced layer of an already imported ``tandemgrip``.

    Every ``solve_pull`` result is appended to ``witnesses`` with its
    contact set, so the witness checks can run after the pass, outside the
    spans.
    """
    import scipy.optimize

    from tandemgrip import campath, cli, config, leadscrew, linkage, picksim, quantiles
    from tandemgrip import simplexlp, wrench

    def plain(owner, attr, name):
        tracer.replace(owner, attr, lambda fn: tracer.span(name, fn))

    plain(simplexlp, "solve_lp", "simplexlp.solve_lp")
    _install_phases(tracer, simplexlp)

    plain(wrench, "predict_strength", "wrench.predict_strength")
    plain(wrench, "build_contacts", "wrench.build_contacts")
    plain(wrench, "calibrate", "wrench.calibrate")

    def keep_witness(fn):
        traced = tracer.span("wrench.solve_pull", fn)

        def solve_pull(contacts, *args, **kwargs):
            sol = traced(contacts, *args, **kwargs)
            witnesses.append((contacts, sol))
            return sol
        return solve_pull
    tracer.replace(wrench, "solve_pull", keep_witness)
    # patched at its source so a lazy ``from scipy.optimize import minimize``
    # inside calibrate is traced as well as the module-level import
    tracer.replace(scipy.optimize, "minimize", lambda fn: _traced_minimize(tracer, fn))

    plain(picksim, "run_campaign", "picksim.run_campaign")
    plain(picksim, "_run_trial", "picksim.trial")
    plain(picksim, "_trial_strength", "picksim.strength_query")
    plain(quantiles.QuantileModel, "sample", "quantiles.sample")

    plain(campath, "solve_finger_pose", "campath.solve_finger_pose")
    plain(campath, "build_default_tracks", "campath.build_default_tracks")
    plain(campath, "validate_path", "campath.validate_path")
    plain(campath, "poses_to_csv", "campath.poses_to_csv")

    plain(linkage, "sweep_transmission", "linkage.sweep_transmission")
    plain(linkage, "solve_geometry", "linkage.solve_geometry")
    plain(leadscrew, "torque_for_thrust", "leadscrew.torque_for_thrust")

    plain(config, "default_config", "config.default_config")
    plain(config, "shipped_calibration", "config.shipped_calibration")
    plain(cli, "main", "cli.main")


def _install_phases(tracer: Tracer, simplexlp) -> None:
    """Split ``solve_lp`` into phase spans and count pivots per phase.

    ``solve_lp`` calls ``_bland_iterate`` once per phase; the first call is
    phase 1 exactly when the tableau carries artificial columns beyond
    ``ncols``. Pivots that drive leftover artificials out of the basis
    after phase 1 count as phase-1 pivots. A changed ``_bland_iterate``
    signature, or a solve that calls it more than twice, means this split
    no longer holds; it is reported with the missing hooks, which fails the
    traced run.
    """
    label = "tandemgrip.simplexlp._bland_iterate"
    iterate = getattr(simplexlp, "_bland_iterate", None)
    if iterate is not None and list(inspect.signature(iterate).parameters) != [
            "tab", "basis", "cost", "ncols", "maxiter"]:
        tracer.missing.append(f"{label} (signature changed)")
        return

    def wrap_solve(fn):
        def solve_lp(*args, **kwargs):
            st = tracer._state()
            st.lp_iterations, st.phase = 0, 0
            return fn(*args, **kwargs)
        return solve_lp

    def wrap_iterate(fn):
        spans = {1: tracer.span("simplexlp.phase1", fn),
                 2: tracer.span("simplexlp.phase2", fn)}

        def _bland_iterate(tab, basis, cost, ncols, maxiter):
            st = tracer._state()
            first = st.lp_iterations == 0
            st.lp_iterations += 1
            if st.lp_iterations > 2:
                tracer.missing.append(f"{label} (called more than twice in one solve_lp)")
            st.phase = 1 if first and tab.shape[1] - 1 > ncols else 2
            return spans[st.phase](tab, basis, cost, ncols, maxiter)
        return _bland_iterate

    def wrap_pivot(fn):
        def _pivot(*args, **kwargs):
            st = tracer._state()
            st.counts["simplexlp.phase2_pivots" if st.phase == 2
                      else "simplexlp.phase1_pivots"] += 1
            return fn(*args, **kwargs)
        return _pivot

    # wraps the solve_lp span installed before, so every solve starts afresh
    tracer.replace(simplexlp, "solve_lp", wrap_solve)
    tracer.replace(simplexlp, "_bland_iterate", wrap_iterate)
    tracer.replace(simplexlp, "_pivot", wrap_pivot)


def _traced_minimize(tracer: Tracer, fn):
    """Nelder-Mead inside ``calibrate``: span it, count objective calls and
    iterations."""
    def minimize(fun, x0, *args, **kwargs):
        objective = tracer.span("wrench.calibrate.objective", fun)
        with tracer.region("wrench.calibrate.nm"):
            res = fn(objective, x0, *args, **kwargs)
        tracer.count("wrench.calibrate.nm_iterations", int(res.nit))
        return res
    return minimize
