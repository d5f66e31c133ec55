"""Command-line front end.

Exit codes: 0 success, 1 stdout closed before the output was written
(for example by ``| head``), 2 usage/config error, 3 domain/geometry error,
4 numerical failure.

Each command imports the layers it runs in its own body, so a short
command such as ``transmission`` does not pay for numpy or the LP layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import svgplot
from .config import GripperConfig, data_text, default_config, shipped_calibration
from .errors import (
    CalibrationDiverged,
    LpNumericalFailure,
    ParseError,
    ToolkitError,
    require_finite,
)
from .linkage import (
    TravelRange,
    check_step,
    solve_geometry,
    sweep_rows_to_csv,
    sweep_transmission,
    transmission_row,
    travel_grid,
)

USAGE_ERROR, DOMAIN_ERROR, NUMERICAL_ERROR = 2, 3, 4


def _load_config(args) -> GripperConfig:
    if args.config is None:
        return default_config()
    return GripperConfig.load(args.config)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_range(text: str) -> tuple[float, float, float | None]:
    """'a:b' or 'a:b:step' or a single point 'a'."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            return v, v, None
        if len(parts) == 2:
            return float(parts[0]), float(parts[1]), None
        if len(parts) == 3:
            return float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        pass
    raise ParseError(f"bad range {text!r}, expected lo:hi[:step]")


def cmd_transmission(args) -> int:
    cfg = _load_config(args)
    lo, hi, step = (cfg.travel.x_min, cfg.travel.x_max, None)
    if args.range is not None:
        lo, hi, step = _parse_range(args.range)
    step = args.step if args.step is not None else (0.1 if step is None else step)
    if hi < lo:
        print("empty range", file=sys.stderr)
        return USAGE_ERROR
    if hi == lo:
        check_step(step)   # one point needs no grid, but a step given must be valid
        rows = [transmission_row(cfg.linkage, lo, args.f_out, cfg.screw)]
    else:
        rows = sweep_transmission(cfg.linkage, TravelRange(lo, hi), step,
                                  args.f_out, cfg.screw)
    if not any(r.feasible for r in rows):
        print("no feasible samples in range", file=sys.stderr)
        return DOMAIN_ERROR
    out = _out_dir(args)
    csv_text = sweep_rows_to_csv(rows)
    (out / "transmission.csv").write_text(csv_text)
    if args.format == "svg":
        feas = [r for r in rows if r.feasible]
        xs = [r.x for r in feas]
        svg = svgplot.line_chart(
            xs,
            {
                "ratio": [r.ratio for r in feas],
                "alpha+theta [deg]": [math.degrees(r.alpha + r.theta) for r in feas],
                "torque [N*m]": [r.t_motor for r in feas],
            },
            "nut travel x [mm]", "see series", "power transmission",
        )
        (out / "transmission.svg").write_text(svg)
    print(csv_text, end="")
    return 0


def cmd_bruise(args) -> int:
    cfg = _load_config(args)
    anchor = args.anchor
    if "@" in anchor:
        f_txt, x_txt = anchor.split("@", 1)
        f_anchor, x_anchor = float(f_txt), float(x_txt)
    else:
        f_anchor, x_anchor = float(anchor), 58.0
    require_finite(anchor_force=f_anchor)
    if f_anchor < 0.0:
        raise ValueError("anchor force must be >= 0")
    if not cfg.travel.x_min <= x_anchor <= cfg.travel.x_max:
        print(f"anchor x={x_anchor} outside travel range", file=sys.stderr)
        return USAGE_ERROR
    ratio_anchor = solve_geometry(cfg.linkage, x_anchor).ratio
    f_nut = f_anchor / ratio_anchor
    lines = ["x_mm,f_out_N,exceeds_threshold"]
    xs, fs, exceeded = [], [], False
    for x in travel_grid(cfg.travel, args.step):
        f_out = solve_geometry(cfg.linkage, x).ratio * f_nut
        flag = f_out > cfg.bruise_threshold
        exceeded = exceeded or flag
        xs.append(x)
        fs.append(f_out)
        lines.append(f"{x:.9g},{f_out:.9g},{str(flag).lower()}")
    if not math.isfinite(max(fs)):
        raise ValueError(f"anchor force {f_anchor!r} N overflows the clamp-force curve")
    out = _out_dir(args)
    csv_text = "\n".join(lines) + "\n"
    (out / "bruise.csv").write_text(csv_text)
    if args.format == "svg":
        svg = svgplot.line_chart(
            xs,
            {"predicted pad force [N]": fs,
             "bruise threshold": [cfg.bruise_threshold] * len(xs)},
            "nut travel x [mm]", "force [N]", "clamp force vs bruise threshold",
        )
        (out / "bruise.svg").write_text(svg)
    print(csv_text, end="")
    if exceeded:
        print("warning: bruise threshold exceeded", file=sys.stderr)
    return 0


def cmd_campath(args) -> int:
    import numpy as np

    from . import campath

    cfg = _load_config(args)
    if cfg.cam is not None and args.fruit_diameter is None:
        spec, report = cfg.cam, None
    else:
        diameter = args.fruit_diameter if args.fruit_diameter is not None else 75.0
        spec, report = campath.build_default_tracks(diameter / 2.0, args.clearance)
    if report is None or len(report.poses) != args.samples:
        report = campath.validate_path(spec, args.samples)
    out = _out_dir(args)
    (out / "campath_spec.json").write_text(spec.to_json())
    (out / "campath_report.json").write_text(campath.report_to_json(report))
    (out / "campath_poses.csv").write_text(campath.poses_to_csv(report))
    if args.format == "svg":
        ts = np.array([i / 127 for i in range(128)])
        curves = {}
        for k, seg in enumerate(spec.outer_path):
            curves[f"outer seg {k}"] = list(map(tuple, seg.eval(ts)))
        curves["inner"] = list(map(tuple, spec.inner_path.eval(ts)))
        poses = campath.solve_finger_poses(spec, np.linspace(0.0, 1.0, 96))
        curves["tip trajectory"] = [tuple(p.pad_tip) for p in poses]
        svg = svgplot.path_plot(
            curves, circle=(spec.fruit_center[0], spec.fruit_center[1],
                            spec.fruit_radius),
            title="cam tracks and tip path",
        )
        (out / "campath.svg").write_text(svg)
    print(campath.report_to_json(report))
    return 0


def cmd_grasp(args) -> int:
    from .wrench import (ActuationMode, GraspScenario, PullType, build_contacts,
                         pull_direction_for, solve_pull, verify_witness)

    cfg = _load_config(args)
    model = cfg.grasp_model if args.config_model else shipped_calibration()
    scenario = GraspScenario(
        fruit_radius=args.fruit_diameter / 2.0,
        fruit_offset=args.offset,
        pull_angle=args.angle,
        pull_type=PullType(args.pull),
        mode=ActuationMode(args.mode),
    )
    contacts = build_contacts(scenario, model)
    sol = solve_pull(contacts, pull_direction_for(scenario))
    problems = verify_witness(contacts, sol)
    if problems:
        print("witness verification failed: " + "; ".join(problems), file=sys.stderr)
        return NUMERICAL_ERROR
    doc = {
        "strength_N": sol.alpha,
        "witness": [
            {"kind": c.kind.value, "position_mm": [float(v) for v in c.position],
             "force_N": [float(v) for v in f]}
            for c, f in zip(contacts.contacts, sol.forces)
        ],
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_calibrate(args) -> int:
    from .wrench import calibrate, calibration_to_json, reference_from_csv

    if args.data is not None:
        text = Path(args.data).read_text()
    else:
        text = data_text("grasp_reference.csv")
    reference = reference_from_csv(text)
    result = calibrate(reference, authoritative_only=not args.all_rows)
    out_json = calibration_to_json(result)
    out = _out_dir(args)
    (out / "calibrated_params.json").write_text(out_json)
    print(out_json)
    return 0


def cmd_simulate(args) -> int:
    from . import picksim
    from .wrench import ActuationMode

    model = shipped_calibration()
    occl = picksim.LEAF_OCCLUSION_FAIL_PROB if args.occlusion else 0.0
    stats = picksim.DEFAULT_FIELD_STATS
    if args.stats is not None:
        stats = picksim.TrialStats.from_json(Path(args.stats).read_text())
    result = picksim.run_campaign(
        stats, model, ActuationMode(args.mode),
        trials=args.trials, seed=args.seed, threads=args.threads,
        occlusion_fail_prob=occl, retries=args.retries,
    )
    out = _out_dir(args)
    (out / "campaign.json").write_text(result.to_json())
    if args.format == "csv":
        (out / "campaign_trials.csv").write_text(picksim.trials_to_csv(result.log))
    print(result.to_json())
    return 0


def cmd_stats(args) -> int:
    from .quantiles import summarize_csv_text

    if args.csv is not None:
        text = Path(args.csv).read_text()
    else:
        text = data_text("field_log_sample.csv")
    stats = summarize_csv_text(text)
    width = max(len(k) for k in stats)
    lines = [f"{'variable':<{width}}  {'min':>8} {'Q1':>8} {'median':>8} {'Q3':>8} {'max':>8}"]
    for name, q in stats.items():
        v = q.as_tuple()
        lines.append(f"{name:<{width}}  " + " ".join(f"{x:8.4g}" for x in v))
    table = "\n".join(lines)
    doc = {name: list(q.as_tuple()) for name, q in stats.items()}
    out = _out_dir(args)
    (out / "stats.json").write_text(json.dumps(doc, indent=2))
    print(table)
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tandemgrip",
        description="Design and analysis toolkit for a tandem-actuated "
                    "(suction + cam-driven finger) fruit gripper.",
    )
    p.add_argument("--config", default=None, help="gripper config JSON (default: bundled); "
                   "calibrate, simulate and stats do not read it and exit 2 when it is given")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transmission", help="force/torque transmission sweep")
    t.add_argument("--range", default=None, help="x range lo:hi[:step], mm")
    t.add_argument("--step", type=float, default=None, help="step, mm (default 0.1)")
    t.add_argument("--f-out", type=float, default=30.0, help="target pad force, N")
    t.set_defaults(func=cmd_transmission)

    b = sub.add_parser("bruise", help="predicted clamp force vs travel")
    b.add_argument("--anchor", default="18@58", help="'force@x' calibration anchor")
    b.add_argument("--step", type=float, default=0.1)
    b.set_defaults(func=cmd_bruise)

    c = sub.add_parser("campath", help="generate/validate cam tracks")
    c.add_argument("--fruit-diameter", type=float, default=None, help="mm")
    c.add_argument("--clearance", type=float, default=3.0, help="mm")
    c.add_argument("--samples", type=int, default=500)
    c.set_defaults(func=cmd_campath)

    g = sub.add_parser("grasp", help="predict grasp strength")
    g.add_argument("--mode", choices=("suction", "fingers", "dual"), default="dual")
    g.add_argument("--offset", type=float, default=0.0, help="fruit offset, mm")
    g.add_argument("--angle", type=float, default=0.0, help="pull angle, deg")
    g.add_argument("--pull", choices=("axial", "rotational"), default="axial")
    g.add_argument("--fruit-diameter", type=float, default=75.0, help="mm")
    g.add_argument("--config-model", action="store_true",
                   help="use the grasp model from the config file instead of "
                        "the bundled calibration")
    g.set_defaults(func=cmd_grasp)

    k = sub.add_parser("calibrate", help="fit the grasp model to measurements")
    k.add_argument("--data", default=None, help="reference CSV (default: bundled)")
    k.add_argument("--all-rows", action="store_true",
                   help="fit on approximate (plot-read) rows too")
    k.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("simulate", help="Monte-Carlo pick campaign",
                       description="Monte-Carlo pick campaign. Campaigns use the shipped "
                                   "calibration: simulate, like calibrate and stats, does "
                                   "not read --config and exits 2 when it is given.")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mode", choices=("suction", "fingers", "dual"), default="dual")
    s.add_argument("--threads", type=int, default=1,
                   help="must be >= 1; kept for compatibility, it changes neither "
                        "the results nor the run time (campaigns run in batched "
                        "rounds on one thread)")
    s.add_argument("--occlusion", action="store_true",
                   help="apply the leaf-occlusion failure probability")
    s.add_argument("--retries", type=int, default=0)
    s.add_argument("--stats", default=None, help="TrialStats JSON (default: built-in field statistics)")
    s.set_defaults(func=cmd_simulate)

    st = sub.add_parser("stats", help="five-number summaries of a trial log")
    st.add_argument("--csv", default=None, help="trial log CSV (default: bundled sample)")
    st.set_defaults(func=cmd_stats)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if [] in vars(args).values():   # argparse before 3.13 parses "--opt=--" as []
        print("error: '--' is not an option value", file=sys.stderr)
        return USAGE_ERROR
    if args.config is not None and args.command in ("calibrate", "simulate", "stats"):
        # ignoring the file would hide a mistyped path
        print(f"error: {args.command} does not read --config", file=sys.stderr)
        return USAGE_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left: exit quietly, and send what is still buffered to
        # devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (LpNumericalFailure, CalibrationDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
