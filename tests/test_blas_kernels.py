"""The same bytes on every OpenBLAS kernel.

OpenBLAS picks its kernels by CPU when it loads, and ``OPENBLAS_CORETYPE``
overrides the pick. The test runs one fresh interpreter per kernel, with
the variable set in that child's environment only. Each child runs a small
campaign per mode at two block sizes, stacked pull-LP builds against single
builds, an offset fingers ``grasp``, a 60 mm ``campath`` and ``calibrate``;
it reports the kernel it ran and a digest of each output.

To run the whole suite under one forced kernel, set the variable for that
pytest process alone, e.g. ``OPENBLAS_CORETYPE=Prescott python -m pytest``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import tandemgrip

KERNELS = ("Prescott", "Haswell", "SkylakeX")

CHILD = r'''
import contextlib, ctypes, glob, hashlib, io, json, os
import numpy as np
from tandemgrip import cli, picksim, wrench
from tandemgrip.config import shipped_calibration
from tandemgrip.picksim import DEFAULT_FIELD_STATS, run_campaign
from tandemgrip.wrench import ActuationMode, GraspScenario, PullType


def core():
    """The kernel numpy's bundled OpenBLAS runs, or None without one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def digest(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


out = {}
model = shipped_calibration()
for block in (picksim.CAMPAIGN_BLOCK, 7):
    picksim.CAMPAIGN_BLOCK = block
    for mode in ActuationMode:
        # the whole result in full precision: the CSV log rounds strengths to .9g
        result = run_campaign(DEFAULT_FIELD_STATS, model, mode, 120, seed=29,
                              occlusion_fail_prob=0.1, retries=2)
        out[f"campaign {mode.value} block {block}"] = digest(repr(result))

rng = np.random.default_rng(5)
queries = [(GraspScenario(float(rng.uniform(20.0, 60.0)), float(rng.uniform(0.0, 20.0)),
                          float(rng.uniform(0.0, 90.0)), pull_type, mode), cups)
           for mode in ActuationMode for pull_type in PullType
           for cups in ((0, 1, 2), (2, 0), (1,)) for _ in range(5)]
for name, chunks in (("stacked", [queries[i:i + 5] for i in range(0, len(queries), 5)]),
                     ("single", [[q] for q in queries])):
    lps = [wrench._strength_stack(*map(list, zip(*chunk)), model).refresh(model)
           for chunk in chunks]
    out[f"pull lps {name}"] = digest(b"".join(
        a[k].tobytes() for lp in lps for k in range(len(lp[0])) for a in lp))

for argv in (["grasp", "--mode", "fingers", "--offset", "20", "--angle", "30"],
             ["campath", "--fruit-diameter", "60"], ["calibrate"]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    out[" ".join(argv)] = digest(f"{code}\n{stdout.getvalue()}")
for path in sorted(os.listdir(".")):
    with open(path, "rb") as f:
        out[path] = digest(f.read())
print(json.dumps({"core": core(), "outputs": out}))
'''


def run_under(kernel: str, cwd: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(tandemgrip.__file__).parents[1]),
           "OPENBLAS_CORETYPE": kernel}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    runs = {}
    for kernel in KERNELS:
        (tmp_path / kernel).mkdir()
        runs[kernel] = run_under(kernel, tmp_path / kernel)
    cores = {run["core"] for run in runs.values()}
    checked = (f"kernels run: {sorted(map(str, cores))}" if len(cores) > 1 else
               f"this BLAS ignores OPENBLAS_CORETYPE: only {cores.pop()} was checked")
    for kernel, run in runs.items():
        outputs = run["outputs"]
        assert {"calibrated_params.json", "campath_poses.csv"} <= set(outputs), checked
        for mode in ("suction", "fingers", "dual"):
            logs = {v for k, v in outputs.items() if k.startswith(f"campaign {mode} block")}
            assert len(logs) == 1, f"{mode} log depends on CAMPAIGN_BLOCK under {kernel}; {checked}"
        assert outputs["pull lps stacked"] == outputs["pull lps single"], (
            f"stacked LP builds differ from single builds under {kernel}; {checked}")
    first = runs[KERNELS[0]]["outputs"]
    for kernel, run in runs.items():
        differ = sorted(k for k, v in run["outputs"].items() if first.get(k) != v)
        assert not differ, f"{kernel} differs from {KERNELS[0]} in {differ}; {checked}"
