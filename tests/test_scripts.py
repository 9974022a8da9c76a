"""The checked-in measuring scripts still run against this tree's API.

Each script under `scripts/` is run on both sides of a change, so a renamed or
reshaped call it makes would only show when the next measurement is taken.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_bo_scale_fit_child_runs():
    # The smallest `fit` measurement: 40 evaluated designs and a few GP fits, about 1 s.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", "bench_bo_scale.py")
    out = subprocess.run(
        [sys.executable, script, "--child", "fit", "40"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["n"] == 40
    assert report["warm_fit_s"] > 0.0 and report["warm_fit_nll_evals"] > 0
