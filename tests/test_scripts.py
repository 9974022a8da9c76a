"""The checked-in scripts still run against this tree's API.

Each script under `scripts/` is run on both sides of a change, so a renamed or
reshaped call it makes would only show when the next measurement is taken.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_bo_scale_child(*args: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", "bench_bo_scale.py")
    out = subprocess.run(
        [sys.executable, script, "--child", *args],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_bench_bo_scale_fit_child_runs():
    # The smallest `fit` measurement: 40 evaluated designs and a few GP fits, about 1 s.
    report = _bench_bo_scale_child("fit", "40")
    assert report["n"] == 40
    assert report["warm_fit_s"] > 0.0 and report["warm_fit_nll_evals"] > 0
    assert report["cold_fit_nll_evals"] > 0 and report["extend_s"] > 0.0


def test_bench_bo_scale_round_child_runs():
    # One `round` child: the import of bo, then candidate sets and posteriors at four dimensions, about 1 s.
    report = _bench_bo_scale_child("round")
    assert report["import_s"] > 0.0 and report["rss_after_import_mb"] > 0.0
    for dim in (6, 12, 20, 38):
        assert report[f"candidates_us_d{dim}"] > 0.0 and report[f"posterior_us_d{dim}"] > 0.0


def test_unreached_lists_functions_no_command_enters():
    # The whole command mix at budget 3, about 3 s.
    script = os.path.join(ROOT, "scripts", "unreached.py")
    out = subprocess.run(
        [sys.executable, script, "--budget", "3"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), check=True, capture_output=True, text=True, timeout=120,
    ).stdout.splitlines()
    *lines, summary = out
    listed = {line.split(" ", 1)[1] for line in lines}
    assert summary.startswith(f"{len(lines)} of ") and summary.endswith(" functions under src/aerobench unreached at budget 3")
    # Only criteria tests call these two; every command enters the rest.
    assert {"bisect_alpha_to_cl", "pareto_front"} <= listed
    assert not listed & {"cmd_list", "cmd_run", "cmd_compare", "cmd_diagnose", "RunRecord.best_at", "rank_table"}
