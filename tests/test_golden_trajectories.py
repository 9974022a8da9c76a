"""Trajectories stay bit-identical to digests recorded at a known-good commit.

Criterion 8 only compares reruns within one commit. This test compares every
method against sha256 digests of whole trajectories (iteration, design id,
reward, running best, feasibility, error, warnings, best design and resolved
config) stored in `tests/data/golden_trajectories.json`, so a refactor that
moves a single reward bit fails here. The digests depend on the numpy/BLAS
build as well as on the code; a deliberate change of reward bits bumps
`harness_version` or `CATALOG_VERSION` and records the digests again with

    PYTHONPATH=src python tests/test_golden_trajectories.py
"""
import hashlib
import importlib
import json
import os

import numpy as np
import pytest

from aerobench.cli import main
from aerobench.optimizers import OptimizerConfig, method_names, run_with_budget
from aerobench.problems import MINIMIZE, function_environment, get_environment, task_ids
from aerobench.space import continuous_space

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_trajectories.json")

TASKS = ("delta-ld-single", "ceras-fuel-mixed", "bwb-drag-multipoint")
SEEDS = (0, 1, 2)
WARM_SEED = 2
# Enough for two PSO sweeps plus leftover budget, several lbfgsb gradients
# and CMA generations; BO fits its GP a few times past the initial design.
BUDGET = {"bo": 34, "cmaes": 50, "evolve": 50, "lbfgsb": 50, "pso": 50}
# Every other catalog task gets a short PSO, CMA-ES and L-BFGS-B run, so each
# evaluator (Kulfan geometry, exact lift trim, one-hot blocks, discrete
# levels) is covered by at least one digest.
WIDE_METHODS = ("cmaes", "lbfgsb", "pso")
WIDE_BUDGET = 30


def _cases() -> dict:
    cases = {}
    for method in method_names():
        for task in TASKS:
            for seed in SEEDS:
                cases[f"{task}/{method}/seed{seed}"] = (task, method, BUDGET[method], seed)
        cases[f"{TASKS[0]}/{method}/budget1"] = (TASKS[0], method, 1, 0)
        cases[f"sphere/{method}/budget7"] = ("sphere", method, 7, 0)
    for task in task_ids():
        if task not in TASKS:
            for method in WIDE_METHODS:
                cases[f"{task}/{method}/budget{WIDE_BUDGET}"] = (task, method, WIDE_BUDGET, 0)
    # Past budget 34 bo keeps its fitted theta between refits (at n = 30, 33,
    # 36, 39, 42, 46, 50 and 55); this case covers those rounds.
    cases[f"{TASKS[0]}/bo/budget60"] = (TASKS[0], "bo", 60, 0)
    return cases


def _environment(task: str):
    if task == "sphere":
        space = continuous_space({f"x{i}": (0.0, 1.0) for i in range(5)})
        return function_environment(
            space, lambda u: float(np.sum((u - 0.3) ** 2)), MINIMIZE, "sphere"
        )
    return get_environment(task)


def trajectory_digest(task: str, method: str, budget: int, seed: int) -> str:
    env = _environment(task)
    try:
        warm = []
        if seed == WARM_SEED:
            warm = [env.space.clip(p) for p in env.space.sample_uniform(seed=1, n=2)]
        traj = run_with_budget(
            env,
            OptimizerConfig(method=method, budget=budget, seed=seed),
            warmstart=warm,
        )
    finally:
        env.close()
    payload = {
        "records": [
            [r.iteration, r.design_id, r.reward, r.best_so_far, r.feasible, r.error]
            for r in traj.records
        ],
        "warnings": list(traj.warnings),
        "best_reward": traj.best_reward,
        "best_design": None if traj.best_design is None else traj.best_design.to_json(),
        "resolved_config": traj.resolved_config,
    }
    # json writes floats with repr, which round-trips every bit.
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


CASES = _cases()


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_golden(case, goldens):
    assert trajectory_digest(*CASES[case]) == goldens[case]


@pytest.mark.parametrize("method", method_names())
def test_a_written_resolved_config_reruns_its_trajectory(method, goldens, tmp_path):
    # `aerobench run` records the method's fixed settings; its method, budget
    # and seed rebuild the same run.
    task = TASKS[0]
    argv = ["run", "--task", task, "--method", method, "--seeds", "0",
            "--budget", str(BUDGET[method]), "--out", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / task / method / "seed0" / "resolved_config.json") as fh:
        cfg = json.load(fh)
    assert cfg["options"] == importlib.import_module(f"aerobench.optimizers.{method}").DEFAULTS
    config = OptimizerConfig(**{k: cfg[k] for k in ("method", "budget", "seed")})
    digest = trajectory_digest(task, config.method, config.budget, config.seed)
    assert digest == goldens[f"{task}/{method}/seed0"]


if __name__ == "__main__":
    digests = {case: trajectory_digest(*args) for case, args in sorted(CASES.items())}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
