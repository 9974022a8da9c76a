"""Measure `bo` at two source trees and write BENCH_bo_scale.json.

Usage:
    python scripts/bench_bo_scale.py --parent DIR [--change DIR]
        [--sections fit cells quality counts round perfbench] [--pairs 10] [--seed 211]
        [--workloads bo-gp ...] [--out BENCH_bo_scale.json]

DIR is a checkout holding `src/` and `perfbench/`; `--change` defaults to the
checkout this script sits in. Every measurement runs in a fresh child process
with `OPENBLAS_NUM_THREADS=1` and that checkout's `src` first on the path.
Each section replaces its own key of the output file, so sections can be
run one at a time. The sections:

- fit: the model cost of one round against the data count n, on n uniform
  designs of `car-drag-single` (20-D). The start theta is each tree's own
  cold fit on the first n - max(1, n // 10) rows, the theta a run holds when
  a refit falls due; that cold fit's likelihood evaluations are counted. A
  warm fit from it on all n rows is timed and its likelihood evaluations
  counted; where the tree has `_GP.factor`, a factor at that theta is timed
  too, and where it has `_GP.extend`, appending the last row to the factor
  of the others. A round between refits costs the append where the tree
  has one, else the factor. The acquisition costs the same on both trees
  and is not included.
- cells: `bo` wall time of one cell (seed 0) on `car-drag-single`, with its
  fits and likelihood evaluations, at budgets 120, 240, 480 and 2000.
- quality: best reward at budgets 60, 120 and 240 on five tasks, seeds 0-4.
  `bo` does not read its budget, so a budget-240 run's first 60 and 120
  records are the budget-60 and budget-120 runs; one such prefix is checked.
- counts: fits and likelihood evaluations of one pass of the `bo-gp`
  workload (`bo` at budget 45 on its two tasks, `--seed`).
- round: in each of 5 fresh children per tree, the sides alternating, the
  wall time of `import aerobench.optimizers.bo` and the process's peak RSS
  (`ru_maxrss`) right after it; then the cost of one round's 256 scrambled
  Sobol candidates at d = 6, 12, 20 and 38 (the tree's own builder) and of
  one posterior over them on 60 rows. Each figure is the median of the 5.
- perfbench: `perfbench/run.py --workload W --seed S --seconds 20` for each
  workload, `--pairs` pairs, the side that runs first alternating by pair.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIT_NS = (120, 240, 480, 960)
FIT_TASK = CELL_TASK = "car-drag-single"
FIT_REPEATS = 3
CELL_BUDGETS = (120, 240, 480, 2000)
QUALITY_TASKS = (
    "delta-ld-single",
    "car-drag-single",
    "transonic-drag-single",
    "cca-ld-single",
    "bwb-drag-multipoint",
)
QUALITY_BUDGETS = (60, 120, 240)
QUALITY_SEEDS = range(5)
BO_GP_TASKS = ("delta-ld-single", "ceras-fuel-mixed")
BO_GP_BUDGET = 45
PERFBENCH_SECONDS = 20
ROUND_CHILDREN = 5
ROUND_DIMS = (6, 12, 20, 38)
ROUND_ROWS = 60


# ---- child side: runs inside one tree's `src` ------------------------------


def _counting_gp():
    """`bo` with its fits and likelihood evaluations counted."""
    from aerobench.optimizers import bo

    counts = {"fits": 0, "nll_evals": 0}
    fit, nll = bo._GP.fit, bo._GP._neg_mll_and_grad

    def counted_fit(gp, *args):
        counts["fits"] += 1
        return fit(gp, *args)

    def counted_nll(gp, theta):
        counts["nll_evals"] += 1
        return nll(gp, theta)

    bo._GP.fit, bo._GP._neg_mll_and_grad = counted_fit, counted_nll
    return bo, counts


def child_fit(n: int) -> dict:
    import numpy as np

    from aerobench.problems import get_environment

    bo, counts = _counting_gp()
    env = get_environment(FIT_TASK)
    U = np.random.Generator(np.random.Philox(key=0)).random((n, env.space.relaxed_dim))
    # Only what both trees have: one `denormalize` per row, evaluated as one batch.
    results = env.evaluate_batch([env.space.denormalize(u) for u in U])
    x = np.array([u for u, r in zip(U, results) if r.reward is not None])
    y = np.array([r.reward for r in results if r.reward is not None])
    m = len(x) - max(1, len(x) // 10)
    cold = bo._GP(x[:m], y[:m], lambda msg: None)
    cold.fit(np.random.Generator(np.random.Philox(key=1)))
    theta, cold_evals = cold.theta, counts["nll_evals"]
    fit_s, factor_s, extend_s = [], [], []
    for _ in range(FIT_REPEATS):
        counts["nll_evals"] = 0
        gp = bo._GP(x, y, lambda msg: None, theta)
        start = time.perf_counter()
        gp.fit(None)
        fit_s.append(time.perf_counter() - start)
        if hasattr(bo._GP, "factor"):
            gp = bo._GP(x, y, lambda msg: None, theta)
            start = time.perf_counter()
            gp.factor()
            factor_s.append(time.perf_counter() - start)
        if hasattr(bo._GP, "extend"):
            gp = bo._GP(x[:-1], y[:-1], lambda msg: None, theta, capacity=len(x))
            gp.factor()
            gp.add(x[-1:], y[-1:])
            start = time.perf_counter()
            gp.extend()
            extend_s.append(time.perf_counter() - start)
    out = {"n": len(x), "cold_fit_nll_evals": cold_evals, "warm_fit_s": sorted(fit_s)[len(fit_s) // 2],
           "warm_fit_nll_evals": counts["nll_evals"]}
    for key, times in (("factor_s", factor_s), ("extend_s", extend_s)):
        if times:
            out[key] = sorted(times)[len(times) // 2]
    return out


def child_cell(task: str, budget: int, seed: int) -> dict:
    from aerobench.optimizers import OptimizerConfig, run_with_budget
    from aerobench.problems import get_environment

    _, counts = _counting_gp()
    env = get_environment(task)
    start = time.perf_counter()
    traj = run_with_budget(env, OptimizerConfig(method="bo", budget=budget, seed=seed))
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 3),
        "fits": counts["fits"],
        "nll_evals": counts["nll_evals"],
        "best_so_far": [r.best_so_far for r in traj.records],
    }


def child_round() -> dict:
    import resource

    start = time.perf_counter()
    from aerobench.optimizers import bo

    import_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import timeit

    import numpy as np

    n = bo.DEFAULTS["n_candidates"]
    if hasattr(bo, "_sobol"):
        candidates = bo._sobol
    else:  # the builder before `_sobol`: scipy's engine
        def candidates(dim, n, seed):
            return bo.qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)

    out = {"import_s": import_s, "rss_after_import_mb": rss_mb}
    for dim in ROUND_DIMS:
        rng = np.random.Generator(np.random.Philox(key=dim))
        x = rng.random((ROUND_ROWS, dim))
        gp = bo._GP(x, np.sin(4 * x[:, 0]) + x[:, 1], lambda msg: None, bo.DEFAULT_THETA)
        gp.factor()
        cand = candidates(dim, n, 5)
        timed = {"candidates_us": lambda: candidates(dim, n, 5), "posterior_us": lambda: gp.posterior(cand)}
        for key, call in timed.items():
            out[f"{key}_d{dim}"] = min(timeit.repeat(call, number=20, repeat=5)) / 20 * 1e6
    return out


# ---- parent side ---------------------------------------------------------


def in_tree(tree: str, kind: str, *args) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, os.path.abspath(__file__), "--child", kind, *map(str, args)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def section_fit(trees: dict) -> dict:
    rows = {}
    for n in FIT_NS:
        row = {side: in_tree(tree, "fit", n) for side, tree in trees.items()}
        for side, got in row.items():
            k = max(1, got["n"] // 10)
            # One refit per k rounds; the other rounds keep theta and append
            # or factor at it.
            kept_s = got.get("extend_s", got.get("factor_s"))
            got["model_s_per_round"] = (got["warm_fit_s"] + (k - 1) * kept_s) / k if kept_s else got["warm_fit_s"]
        rows[str(n)] = row
        print(f"fit n={n}: {json.dumps(row)}", flush=True)
    return rows


def section_cells(trees: dict) -> dict:
    rows = {}
    for budget in CELL_BUDGETS:
        row = {}
        for side, tree in trees.items():
            got = in_tree(tree, "cell", CELL_TASK, budget, 0)
            got["best_reward"] = got.pop("best_so_far")[-1]
            row[side] = got
        rows[str(budget)] = row
        print(f"cell budget={budget}: {json.dumps(row)}", flush=True)
    return rows


def _spread(values: list[float]) -> dict:
    ordered = sorted(values)
    return {"median": ordered[len(ordered) // 2], "min": ordered[0], "max": ordered[-1]}


def section_quality(trees: dict) -> dict:
    top = max(QUALITY_BUDGETS)
    table, walls = {}, {side: 0.0 for side in trees}
    for side, tree in trees.items():
        # bo ignores its budget: a shorter run is a prefix of the longest.
        short = in_tree(tree, "cell", QUALITY_TASKS[0], QUALITY_BUDGETS[0], 0)["best_so_far"]
        for task in QUALITY_TASKS:
            curves = []
            for seed in QUALITY_SEEDS:
                got = in_tree(tree, "cell", task, top, seed)
                walls[side] += got["wall_s"]
                curves.append(got["best_so_far"])
                if task == QUALITY_TASKS[0] and seed == 0 and got["best_so_far"][: len(short)] != short:
                    raise SystemExit("a shorter bo run is not a prefix of the longer one")
            for budget in QUALITY_BUDGETS:
                best = [curve[budget - 1] for curve in curves]
                table.setdefault(task, {}).setdefault(str(budget), {})[side] = {**_spread(best), "seeds": best}
        print(f"quality {side}: {walls[side]:.1f} s", flush=True)
    for task, by_budget in table.items():
        for row in by_budget.values():
            if "parent" in row:
                p = row["parent"]
                row["change_median_within_parent_range"] = p["min"] <= row["change"]["median"] <= p["max"]
                row["change_median_at_least_parent_median"] = row["change"]["median"] >= p["median"]
    return {"wall_s_of_all_runs": {k: round(v, 1) for k, v in walls.items()}, "tasks": table}


def section_counts(trees: dict, seed: int) -> dict:
    rows = {}
    for side, tree in trees.items():
        cells = [in_tree(tree, "cell", task, BO_GP_BUDGET, seed) for task in BO_GP_TASKS]
        rows[side] = {key: sum(cell[key] for cell in cells) for key in ("fits", "nll_evals")}
    print(f"counts: {json.dumps(rows)}", flush=True)
    return {"seed": seed, "tasks": list(BO_GP_TASKS), "budget": BO_GP_BUDGET, **rows}


def section_round(trees: dict) -> dict:
    runs = {side: [] for side in trees}
    for child in range(ROUND_CHILDREN):
        for side in list(trees) if child % 2 == 0 else list(trees)[::-1]:
            runs[side].append(in_tree(trees[side], "round"))
    out = {}
    for side, rows in runs.items():
        out[side] = {key: round(_spread([row[key] for row in rows])["median"], 4) for key in rows[0]}
    print(f"round: {json.dumps(out)}", flush=True)
    return {"children_per_tree": ROUND_CHILDREN, "posterior_rows": ROUND_ROWS, **out}


def _quartiles(values: list[float]) -> dict:
    import numpy as np

    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 3), "q1": round(float(q1), 3), "q3": round(float(q3), 3),
            "runs": [round(v, 3) for v in values]}


def section_perfbench(trees: dict, workloads: list[str], pairs: int, seed: int) -> dict:
    out = {}
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for workload in workloads:
        runs = {side: [] for side in trees}
        for pair in range(pairs):
            order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(PERFBENCH_SECONDS)]
                done = subprocess.run(cmd, cwd=trees[side], env=env, capture_output=True, text=True)
                runs[side].append(json.loads(done.stdout.splitlines()[-1]))
            print(f"perfbench {workload} pair {pair}: "
                  + json.dumps({s: r[-1]["metrics"]["items_per_s_adj"]["value"] for s, r in runs.items()}), flush=True)
        result = {"pairs": pairs, "order": "pairs 0, 2, 4, ... run the parent first"}
        for metric, better in (("items_per_s_adj", 1), ("setup_s", -1), ("peak_rss_mb", -1)):
            values = {s: [r["metrics"][metric]["value"] for r in rs] for s, rs in runs.items()}
            wins = sum(better * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            result[metric] = {s: _quartiles(v) for s, v in values.items()}
            result[metric]["change_wins"] = wins
            result[metric]["median_ratio_change_over_parent"] = round(
                result[metric]["change"]["median"] / result[metric]["parent"]["median"], 4
            )
        result["failed"] = {s: [r["failed"] for r in rs] for s, rs in runs.items()}
        result["correct"] = {s: all(r["correct"] for r in rs) for s, rs in runs.items()}
        out[workload] = result
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    parser.add_argument("--parent")
    parser.add_argument("--change", default=ROOT)
    parser.add_argument("--sections", nargs="+", default=["fit", "cells", "quality", "counts", "round", "perfbench"])
    parser.add_argument("--workloads", nargs="+", default=["bo-gp"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=211)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_bo_scale.json"))
    args = parser.parse_args(argv)
    if args.child:
        kind, *rest = args.child
        if kind == "fit":
            print(json.dumps(child_fit(int(rest[0]))))
        elif kind == "round":
            print(json.dumps(child_round()))
        else:
            print(json.dumps(child_cell(rest[0], int(rest[1]), int(rest[2]))))
        return 0
    if not args.parent:
        parser.error("--parent is required")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    report = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    import numpy
    import scipy

    report["machine"] = (
        f"{platform.machine()} host with {os.cpu_count()} cores, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, OPENBLAS_NUM_THREADS=1, shared with other tenants"
    )
    for section in args.sections:
        start = time.perf_counter()
        if section == "fit":
            report["fit"] = section_fit(trees)
        elif section == "cells":
            report["cells"] = section_cells(trees)
        elif section == "quality":
            report["quality"] = section_quality(trees)
        elif section == "counts":
            report["counts"] = section_counts(trees, args.seed)
        elif section == "round":
            report["round"] = section_round(trees)
        elif section == "perfbench":
            report.setdefault("perfbench", {}).update(
                section_perfbench(trees, args.workloads, args.pairs, args.seed)
            )
            report["perfbench_command"] = (
                f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {PERFBENCH_SECONDS}"
            )
        else:
            parser.error(f"unknown section {section!r}")
        print(f"section {section}: {time.perf_counter() - start:.0f} s", flush=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
