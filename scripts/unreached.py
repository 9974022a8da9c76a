"""List every function under `src/aerobench` that no command of a fixed mix enters.

Usage:
    python scripts/unreached.py [--budget N]

The mix runs through `aerobench.cli.main` in this process, with `sys.settrace`
set before `aerobench` is imported, on seed 0 at budget N (default 40, past
`bo`'s 30 initial designs, so its GP fits run):

- `list`;
- `run` of every method on every catalog task, on the stand-in evaluators;
- `run` of `pso` on the multi-point tasks over the wire, with
  `perfbench/wire_evaluator.py` as `--evaluator`;
- `run` of every method on `delta-ld-single` with `--warmstart` (one design);
- `compare` of the stand-in grid under `--group-by task` and `environment`;
- `diagnose` of each task's best `pso` design with its stand-in metrics.

A function counts as entered when any call of its code starts in this
process, so code only the evaluator child runs is listed. The inputs for
`--warmstart` and `diagnose` are made with the trace paused. Prints one
`path:line name` a line, then how many of the functions were never entered.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "aerobench")
WIRE_TASKS = ("airfoil-drag-multipoint", "bwb-drag-multipoint", "transonic-range-multipoint", "delta-ld-robust")
WARM_TASK = "delta-ld-single"


def functions() -> dict[tuple[str, int], str]:
    """(real path, first line of the code) of every function and method under `src/aerobench` -> its name."""
    found: dict[tuple[str, int], str] = {}

    def collect(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    # A decorated function's code starts at its first decorator.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = prefix + child.name
                collect(child, path, f"{prefix}{child.name}.")
            else:
                collect(child, path, prefix)

    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.realpath(os.path.join(dirpath, name))
                with open(path) as fh:
                    collect(ast.parse(fh.read()), path, "")
    return found


def _settrace(trace) -> None:
    threading.settrace(trace)  # threads started from here on
    sys.settrace(trace)


@contextlib.contextmanager
def _paused():
    trace = sys.gettrace()
    _settrace(None)
    try:
        yield
    finally:
        _settrace(trace)


def _main(argv: list[str], allowed: tuple[int, ...] = (0,)) -> None:
    from aerobench.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if code not in allowed:
        raise SystemExit(f"aerobench {' '.join(argv)} exited {code}: {out.getvalue().strip()}")


def run_mix(budget: int, tmp: str) -> None:
    """Every command of the mix, with `aerobench` imported under the trace."""
    from aerobench.optimizers import method_names
    from aerobench.problems import catalog
    from aerobench.space import DesignPoint

    tasks, methods = catalog.task_ids(), ",".join(method_names())
    grid = ["--seeds", "0", "--budget", str(budget)]
    runs = os.path.join(tmp, "runs")
    _main(["list"])
    _main(["run", "--task", ",".join(tasks), "--method", methods, *grid, "--out", runs])
    wire = f"{sys.executable} {os.path.join(ROOT, 'perfbench', 'wire_evaluator.py')} {' '.join(WIRE_TASKS)}"
    _main(["run", "--task", ",".join(WIRE_TASKS), "--method", "pso", *grid,
           "--evaluator", wire, "--out", os.path.join(tmp, "wire")])
    warm = os.path.join(tmp, "warm.csv")
    with _paused():
        (point,) = catalog.get_environment(WARM_TASK).space.sample_uniform(seed=1, n=1)
        with open(warm, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(point.values))
            writer.writeheader()
            writer.writerow(point.values)
    _main(["run", "--task", WARM_TASK, "--method", methods, *grid, "--warmstart", warm,
           "--out", os.path.join(tmp, "warm")])
    for group_by in ("task", "environment"):
        _main(["compare", runs, "--group-by", group_by, "--out", os.path.join(tmp, f"compare-{group_by}")])
    for task in tasks:
        design = os.path.join(runs, task, "pso", "seed0", "best_design.json")
        metrics = os.path.join(tmp, f"{task}-metrics.json")
        with _paused():
            with open(design) as fh:
                point = DesignPoint.from_json(json.load(fh))
            with open(metrics, "w") as fh:
                json.dump({"metrics": dict(catalog.get_environment(task).evaluate(point).metrics)}, fh)
        # 2 and 3 are a bundle's warning and issue statuses, not failures of the command.
        _main(["diagnose", "--design", design, "--metrics", metrics, "--task", task,
               "--out", os.path.join(tmp, f"{task}-bundle.json")], allowed=(0, 2, 3))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=40, help="evaluations per run cell (default 40)")
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error("--budget must be at least 1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, SRC)
    known = functions()
    started: set[tuple[str, int]] = set()  # (file, first line) of every code object called

    def trace(frame, event, arg):
        started.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        _settrace(trace)
        try:
            run_mix(args.budget, tmp)
        finally:
            _settrace(None)
    entered = {(os.path.realpath(path), line) for path, line in started}
    unreached = sorted(key for key in known if key not in entered)
    for path, line in unreached:
        print(f"{os.path.relpath(path, ROOT)}:{line} {known[(path, line)]}")
    print(f"{len(unreached)} of {len(known)} functions under src/aerobench unreached at budget {args.budget}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
