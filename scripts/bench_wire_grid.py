"""Time grids of `aerobench run` at two source trees and write BENCH_wire_grid.json.

Usage:
    python scripts/bench_wire_grid.py --parent DIR [--change DIR] [--repeats 10]
        [--out BENCH_wire_grid.json]

DIR is a checkout holding `src/` and `perfbench/`; `--change` defaults to the
checkout this script sits in. Each tree runs each grid as
`python -m aerobench.cli run` in a fresh process, with its own `src` first on
the path and `OPENBLAS_NUM_THREADS=1`. Within a repeat the trees alternate,
and the side that runs first alternates by repeat. The wall time is that of
the whole `aerobench run` process.

Two grids run `--evaluator` at `--jobs 1` and `--jobs 2`: 4 tasks x
`pso,cmaes` x seeds 0-4 at budget 30, 40 cells and 1,200 designs, each on
the tree's own `perfbench/wire_evaluator.py` serving the stand-in metrics of
the four tasks:

- wire: as it is;
- wire-errors: answers an error for the designs whose parameters, written
  as JSON, have a length divisible by 3. The pick reads the request alone,
  so it is the same however many cells one child serves.

`sh -c` appends each child's pid to a log before it `exec`s the evaluator,
so the children started are counted.

Two grids run the in-process stand-in at `--jobs 2` and budget 120 over all
12 catalog tasks, to time how the pool hands out cells of unequal cost:

- stand-in-skewed: `pso,bo` x seed 0, 24 cells, in which every `bo` cell
  costs many `pso` cells;
- stand-in-catalog: all five methods x seeds 0-4, 300 cells.

The script fails unless every run exits 0 with no child still running after
it, and every results.csv of a grid holds the same rows in every run,
`wall_ms` aside.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from aerobench.problems import catalog  # noqa: E402

WIRE_TASKS = ("delta-ld-single", "car-drag-single", "bwb-drag-multipoint", "transonic-range-multipoint")
# Grid name -> tasks, methods, seeds, budget, --jobs values.
GRIDS = {
    "wire": (WIRE_TASKS, "pso,cmaes", "0-4", 30, (1, 2)),
    "wire-errors": (WIRE_TASKS, "pso,cmaes", "0-4", 30, (1, 2)),
    "stand-in-skewed": (tuple(catalog.task_ids()), "pso,bo", "0", 120, (2,)),
    "stand-in-catalog": (tuple(catalog.task_ids()), "lbfgsb,pso,cmaes,bo,evolve", "0-4", 120, (2,)),
}

# Runs perfbench/wire_evaluator.py (its directory is argv[1]) on the tasks
# after it, answering an error for the designs the rule above picks.
ERRORS_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import wire_evaluator
routes = wire_evaluator.build_routes(sys.argv[2:])
for line in sys.stdin:
    request = json.loads(line)
    if len(json.dumps(request["params"])) % 3 == 0:
        reply = {"id": request["id"], "error": "no convergence"}
    else:
        reply = wire_evaluator.answer(routes, request)
    print(json.dumps(reply), flush=True)
"""


def evaluator_argv(tree: str, grid: str, log: str) -> list[str]:
    """The `--evaluator` option of `grid`; none for the stand-in."""
    perfbench = os.path.join(tree, "perfbench")
    if grid == "wire":
        argv = [sys.executable, os.path.join(perfbench, "wire_evaluator.py"), *WIRE_TASKS]
    elif grid == "wire-errors":
        argv = [sys.executable, "-c", ERRORS_CHILD, perfbench, *WIRE_TASKS]
    else:
        return []
    return ["--evaluator", shlex.join(["sh", "-c", f'echo $$ >> {shlex.quote(log)}; exec {shlex.join(argv)}'])]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _rows(out: str) -> dict:
    """Per results.csv under `out`, by its path there: every row but its wall_ms."""
    found = {}
    for dirpath, _, filenames in os.walk(out):
        if "results.csv" in filenames:
            with open(os.path.join(dirpath, "results.csv"), newline="") as fh:
                found[os.path.relpath(dirpath, out)] = [row[:-1] for row in csv.reader(fh)]
    return found


def run_grid(tree: str, grid: str, jobs: int, work: str) -> tuple[float, int, dict]:
    """Wall seconds, children started and results of one `aerobench run`."""
    out, log = tempfile.mkdtemp(dir=work), os.path.join(work, "pids.txt")
    open(log, "w").close()
    tasks, methods, seeds, budget, _ = GRIDS[grid]
    argv = [sys.executable, "-m", "aerobench.cli", "run", "--task", ",".join(tasks), "--method", methods,
            "--seeds", seeds, "--budget", str(budget), "--out", os.path.join(out, "runs"),
            "--jobs", str(jobs), *evaluator_argv(tree, grid, log)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    with open(log) as fh:
        pids = [int(line) for line in fh.read().split()]
    left = [pid for pid in pids if _alive(pid)]
    if done.returncode != 0 or left:
        raise SystemExit(f"{tree} {grid} --jobs {jobs}: exit {done.returncode}, "
                         f"children still running {left}\n{done.stderr}")
    return wall, len(pids), _rows(os.path.join(out, "runs"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=ROOT)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_wire_grid.json"))
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    report = {
        "command": "python scripts/bench_wire_grid.py --parent DIR --repeats "
                   f"{args.repeats}; DIR a checkout of the parent",
        "grids": {
            grid: {"tasks": list(tasks), "methods": methods, "seeds": seeds, "budget": budget, "jobs": list(jobs)}
            for grid, (tasks, methods, seeds, budget, jobs) in GRIDS.items()
        },
        "machine": f"{platform.machine()} host with {os.cpu_count()} cores, Python "
                   f"{platform.python_version()}, OPENBLAS_NUM_THREADS=1, shared with other tenants",
    }
    with tempfile.TemporaryDirectory() as work:
        for grid, (*_, job_counts) in GRIDS.items():
            reference, result = None, {}
            for jobs in job_counts:
                walls, children = {side: [] for side in trees}, {side: set() for side in trees}
                for repeat in range(args.repeats):
                    for side in (list(trees) if repeat % 2 == 0 else list(trees)[::-1]):
                        wall, started, rows = run_grid(trees[side], grid, jobs, work)
                        reference = reference or rows
                        if rows != reference:
                            raise SystemExit(f"{side} {grid} --jobs {jobs}: results.csv rows differ")
                        walls[side].append(round(wall, 3))
                        children[side].add(started)
                    print(f"{grid} --jobs {jobs} repeat {repeat}: "
                          + json.dumps({side: w[-1] for side, w in walls.items()}), flush=True)
                result[f"jobs{jobs}"] = {
                    side: {"wall_s_median": statistics.median(walls[side]), "wall_s": walls[side],
                           "children_started": sorted(children[side])}
                    for side in trees
                }
                q1, _, q3 = statistics.quantiles(walls["parent"], n=4)
                result[f"jobs{jobs}"]["parent_wall_s_quartiles"] = [round(q1, 3), round(q3, 3)]
                result[f"jobs{jobs}"]["pairs_change_faster"] = sum(
                    c < p for p, c in zip(walls["parent"], walls["change"]))
            rewards = [row[2] for cell in reference.values() for row in cell[1:]]
            result["results_csv_identical_but_wall_ms"] = True
            result["error_rows"] = rewards.count("")
            result["rows"] = len(rewards)
            report[grid] = result
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
