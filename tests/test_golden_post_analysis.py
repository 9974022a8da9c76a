"""`compare` outputs and evidence bundles stay byte-identical to recorded digests.

`tests/data/golden_post_analysis.json` holds the sha256 of every file that
`aerobench compare --group-by task` writes over a small seeded run tree, of
every file `--group-by environment` writes over the same tree plus a second
`delta-*` task (so one environment group holds two tasks), and the sha256 of
`json.dumps(bundles, sort_keys=True)` for a dozen seeded designs. The run
tree covers the edge cases of the analytics: error rows (some leading, some
written as `None`), a run shorter than its budget, an all-error run, a
method whose every run errored, a method absent from one task, a task with
only two methods and a task whose methods all tie. Bundle
artifact paths are relative to a scratch working directory, so the digests do
not depend on where the test runs. Record the digests again (only for a
deliberate change of outputs) with

    PYTHONPATH=src python tests/test_golden_post_analysis.py
"""
import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile

import jsonschema
import numpy as np
import pytest

from aerobench import diagnostics
from aerobench.analytics import RESULTS_HEADER
from aerobench.cli import main
from aerobench.problems import get_environment

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_post_analysis.json")

TASKS = ("airfoil-ld-single", "delta-ld-single", "ceras-fuel-mixed", "bwb-drag-multipoint")
# Only in the environment-mode tree: its rewards are on a scale 10^3 times
# that of delta-ld-single, the other task of the "delta" group.
SECOND_DELTA_TASK = "delta-ld-robust"
METHODS = ("bo", "cmaes", "evolve", "lbfgsb", "pso")
SEEDS = (0, 1, 2)
BUDGET = 40
# The fourth task has two methods, so its Spearman pairs are N/A.
TWO_METHOD_TASK = TASKS[3]
TIE_TASK = "tie-task"
BUNDLE_TASKS = ("car-drag-single", "delta-ld-single", "ceras-fuel-mixed", "bwb-drag-multipoint")
BUNDLES_PER_TASK = 3
TIMESTAMP = "2026-01-01T00:00:00+00:00"


def _run_rewards(t: int, task: str, m: int, s: int) -> list:
    """Rewards of one seeded run, None for an error row."""
    rng = np.random.default_rng([t, m, s])
    scale = 10.0 ** (t - 1)
    rewards = list(np.cumsum(rng.exponential(scale / BUDGET, BUDGET)) + scale * rng.normal(0.0, 0.05, BUDGET))
    rewards = [None if rng.random() < 0.08 else float(r) for r in rewards]
    method = METHODS[m]
    if (task, method) == ("airfoil-ld-single", "cmaes") and s == 1:
        rewards[:5] = [None] * 5
    if (task, method, s) == ("delta-ld-single", "pso", 0):
        rewards = rewards[:23]
    if (task, method, s) == ("delta-ld-single", "evolve", 2):
        rewards = [None] * BUDGET
    if (task, method) == ("ceras-fuel-mixed", "bo"):
        rewards = [None] * BUDGET
    return rewards


def _write_run(root: str, task: str, method: str, seed: int, rewards: list, budget: int, none_text: str) -> None:
    run_dir = os.path.join(root, task, method, f"seed{seed}")
    os.makedirs(run_dir)
    config = {"task": task, "method": method, "seed": seed, "budget": budget, "sense": "maximize"}
    with open(os.path.join(run_dir, "resolved_config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    best = None
    with open(os.path.join(run_dir, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for i, r in enumerate(rewards):
            if r is not None and (best is None or r > best):
                best = r
            writer.writerow([
                i // 5,
                f"eval{i:06d}",
                none_text if r is None else repr(r),
                "" if best is None else repr(best),
                r is not None,
                i + 1,
                "0.0",
            ])


def write_tree(root: str, tasks: tuple = TASKS) -> None:
    for t, task in enumerate(tasks):
        for m, method in enumerate(METHODS):
            if task == "ceras-fuel-mixed" and method == "lbfgsb":
                continue
            if task == TWO_METHOD_TASK and method not in ("cmaes", "pso"):
                continue
            for s in SEEDS:
                rewards = _run_rewards(t, task, m, s)
                _write_run(root, task, method, s, rewards, BUDGET, "None" if s == 2 else "")
    for m, method in enumerate(METHODS):
        for s in SEEDS:
            _write_run(root, TIE_TASK, method, s, [1.5] * (10 + m), BUDGET, "")


def compare_digests(group_by: str = "task") -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        out = os.path.join(tmp, "out")
        write_tree(tree, TASKS if group_by == "task" else TASKS + (SECOND_DELTA_TASK,))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["compare", tree, "--group-by", group_by, "--out", out])
        assert rc == 0
        digests = {}
        for dirpath, _, filenames in os.walk(out):
            for fn in filenames:
                path = os.path.join(dirpath, fn)
                with open(path, "rb") as fh:
                    rel = os.path.relpath(path, out).replace(os.sep, "/")
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def build_bundles() -> list:
    """Bundles for seeded designs; run from a scratch working directory."""
    os.makedirs("artifacts", exist_ok=True)
    rng = np.random.default_rng(11)
    bundles = []
    for t, task in enumerate(BUNDLE_TASKS):
        env = get_environment(task)
        token = env.diagnostics_profile.get("compat_token", "none")
        present = os.path.join("artifacts", f"{token}_base.vtk")
        with open(present, "w") as fh:
            fh.write("vtk\n")
        for k, point in enumerate(env.space.sample_uniform(100 + t, BUNDLES_PER_TASK)):
            metrics = dict(env.evaluate(point).metrics)
            if rng.random() < 0.6:
                drag = float(rng.uniform(0.1, 1.8))
                pressure = drag * float(rng.uniform(0.5, 0.9))
                metrics["drag"] = drag
                metrics["drag_pressure"] = pressure
                metrics["drag_shear"] = (drag - pressure) * float(rng.uniform(0.95, 1.05))
                metrics["lift"] = float(rng.uniform(-3e5, 3e5))
                metrics["Cd"] = float(rng.uniform(-0.2, 1.8))
            images = None
            if k > 0:
                images = tuple(
                    f"sol/{task}_{k}_{suffix}"
                    for suffix in diagnostics.EXPECTED_IMAGE_SUFFIXES
                    if rng.random() < 0.7 * k
                )
            artifacts = {}
            if k != 1:
                artifacts = {
                    "base_vtk_path": present,
                    "norm_stats_path": os.path.join("artifacts", "absent_norm_stats.pt"),
                }
            params = dict(point.values)
            if k == 2:
                # One value outside its bounds trips F002.
                name = env.space.variables[0].name
                if isinstance(params[name], float):
                    params[name] = env.space.variables[0].upper + 1.0
            report = {"diagnostic_status": "complete", "k": k} if k == 2 else None
            inputs = diagnostics.DiagnosticInputs(
                environment=task,
                design_id=f"{task}-{k}",
                space=env.space,
                design_params=params,
                metrics=metrics,
                artifacts=artifacts,
                images=images,
                profile=env.diagnostics_profile,
                design_refs=(f"{task}-{k}.json",),
            )
            bundles.append(diagnostics.build_evidence_bundle(inputs, llm_report=report, timestamp_utc=TIMESTAMP))
        env.close()
    return bundles


def scratch_bundles() -> list:
    """`build_bundles()` run in a scratch working directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            return build_bundles()
        finally:
            os.chdir(cwd)


def bundle_digest(bundles: list) -> str:
    return hashlib.sha256(json.dumps(bundles, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_compare_outputs_match_golden(golden):
    assert compare_digests() == golden["compare"]


def test_environment_compare_outputs_match_golden(golden):
    assert compare_digests("environment") == golden["compare_environment"]


def test_bundles_match_golden(golden):
    assert bundle_digest(scratch_bundles()) == golden["bundles"]


def test_golden_bundles_pass_jsonschema(golden):
    """Every golden bundle matches the schema, which `build_evidence_bundle` does not check."""
    bundles = scratch_bundles()
    schema = diagnostics.bundle_schema()
    for bundle in bundles:
        jsonschema.validate(bundle, schema)
    assert bundle_digest(bundles) == golden["bundles"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        golden = {
            "compare": compare_digests(),
            "compare_environment": compare_digests("environment"),
            "bundles": bundle_digest(scratch_bundles()),
        }
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
