"""Command-line front end: catalog listing, run execution, comparison, and
design diagnostics.

`run` decides what goes into a run directory; `analytics` writes and reads it.
A command reads each input file once; this module alone reads the environment.
`run` alone starts an evaluator child, one per worker, and closes it when that worker ends.
A command raises on an input or output it cannot use before its first write;
`main` alone reports `OSError`, `ValueError` and `csv.Error` as one `error:`
line and exit 1.
"""
from __future__ import annotations

import argparse
import collections
import concurrent.futures
import contextlib
import csv
import datetime
import hashlib
import io
import json
import math
import os
import shlex
import sys
from typing import Sequence

from . import __version__, analytics
from .analytics import RESULTS_HEADER
from .diagnostics import (
    DiagnosticInputs,
    STATUS_ERROR,
    STATUS_ISSUE,
    STATUS_WARNING,
    build_evidence_bundle,
    worst_status,
)
from .optimizers import OptimizerConfig, run_with_budget
from .problems import catalog
from .problems.subproc import SubprocessEvaluator
from .space import DesignPoint, ParamSpace, SpaceError

# RESULTS_HEADER is re-exported for scripts that import it from here.
__all__ = ["RESULTS_HEADER", "build_parser", "main"]

_DIAGNOSE_EXIT = {STATUS_WARNING: 2, STATUS_ISSUE: 3, STATUS_ERROR: 3}


def _input_file(path: str) -> tuple[dict, bytes]:
    """The manifest record (absolute path, SHA-256) of an input file, and the bytes it hashes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return {"path": os.path.abspath(path), "sha256": hashlib.sha256(data).hexdigest()}, data


def _catalog_override() -> tuple[dict | None, dict[str, ParamSpace]]:
    """The `AEROBENCH_CATALOG` file's manifest record (None if unset) and each named task's space.

    A file that cannot be read raises OSError; a bad or refused one raises SpaceError naming it.
    """
    path = os.environ.get(catalog.CATALOG_ENV_VAR)
    if not path:
        return None, {}
    record, data = _input_file(path)
    try:
        return record, catalog.overridden_spaces(json.loads(data.decode()))
    except KeyError as exc:
        raise SpaceError(f"catalog override {path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # ValueError covers SpaceError, bad JSON and undecodable text
        raise SpaceError(f"catalog override {path}: {exc}") from None


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    _, overrides = _catalog_override()
    entries = [catalog.get_environment(t).with_space(overrides.get(t)).describe() for t in catalog.task_ids()]
    for clause in args.filter or []:
        if "=" not in clause:
            raise ValueError(f"filter must be key=value, got {clause!r}")
        key, value = clause.split("=", 1)
        if key == "task":
            entries = [e for e in entries if e["id"] == value]
        elif key == "kind":
            if value == "mixed":
                # "mixed" is a catalog tag for the mixed-variable aircraft
                # tasks, not just any space with more than one variable kind.
                entries = [e for e in entries if "mixed" in e["tags"]]
            else:
                entries = [e for e in entries if value in e["variable_kinds"]]
        elif key == "sense":
            entries = [e for e in entries if e["sense"] == value]
        else:
            raise ValueError(f"unknown filter key {key!r}")

    if args.json:
        json.dump(entries, sys.stdout, indent=2)
        print()
        return 0
    for e in entries:
        print(
            f"{e['id']:28s} dim={e['relaxed_dim']:<3d} "
            f"kinds={','.join(e['variable_kinds']):30s} "
            f"points={e['n_operating_points']} sense={e['sense']:8s} "
            f"constraints={e['n_constraints']}"
        )
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        # A leading "-" is a negative seed, which `OptimizerConfig` refuses by name.
        head, dash, tail = part.partition("-") if part[0] != "-" else (part, "", "")
        bounds = [head.removeprefix("-"), tail] if dash else [head.removeprefix("-")]
        # int() alone would also take "1_0", "+3" and non-ASCII digits such as "٣".
        if not all(bound.isascii() and bound.isdigit() for bound in bounds):
            raise ValueError(f"--seeds: {part!r} is not a seed or a lo-hi range")
        lo = int(head)
        hi = int(tail) if dash else lo
        if lo > hi:
            raise ValueError(f"--seeds: seed range {part!r} is empty")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ValueError("--seeds: no seeds given")
    return _distinct(seeds, "seeds")


def _distinct(items: list, what: str) -> list:
    """`items` unchanged; a value given twice would run one cell twice into one directory."""
    twice = [str(item) for item, n in collections.Counter(items).items() if n > 1]
    if twice:
        raise ValueError(f"duplicate {what}: {', '.join(twice)}")
    return items


def _evaluator_argv(command: str | None) -> list[str] | None:
    """The `--evaluator` command split as a POSIX shell would; None for the stand-in."""
    if command is None:
        return None
    try:
        argv = shlex.split(command)
    except ValueError as exc:  # unbalanced quotes
        raise ValueError(f"--evaluator {command!r}: {exc}") from None
    if not argv:
        raise ValueError("--evaluator is blank")
    return argv


def _read_warmstart(path: str, spaces: dict[str, ParamSpace]) -> tuple[dict, dict[str, list[DesignPoint]]]:
    """The warm-start CSV's manifest record, and every row of it read into each task's space by `clip`."""
    record, data = _input_file(path)
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet's "CSV UTF-8" export writes first.
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8-sig"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    warm = {}
    for task, space in spaces.items():
        warm[task] = []
        for n, row in enumerate(rows, start=1):
            try:
                point = DesignPoint({name: row[name] for name in space.names if name in row})
                warm[task].append(space.clip(point))
            except SpaceError as exc:
                raise SpaceError(f"warm-start row {n} for {task}: {exc}") from None
    return record, warm


def _execute_run(
    task: str,
    method: str,
    seed: int,
    budget: int,
    out: str,
    space: ParamSpace | None,
    warmstart: list[DesignPoint],
    evaluator: SubprocessEvaluator | None,
) -> None:
    """Run one (task, method, seed) cell over `space` (None: the task's own) on `evaluator` (None:
    the stand-in), and write it under `out`."""
    env = catalog.get_environment(task).with_space(space)
    if evaluator is not None:
        env = env.with_evaluator(evaluator)
    config = OptimizerConfig(method=method, budget=budget, seed=seed)
    analytics.write_run_dir(out, run_with_budget(env, config, warmstart=warmstart), env.sense)


_worker_evaluator: SubprocessEvaluator | None = None  # a pool worker's child (None: the stand-in)


def _start_worker(evaluator_command: list[str] | None) -> None:
    """Pool initializer: one child for all of this worker's cells, closed when the worker exits."""
    global _worker_evaluator
    if evaluator_command:
        import multiprocessing.util  # loaded in a worker anyway; at the top it would slow every `import aerobench.cli`
        _worker_evaluator = SubprocessEvaluator(evaluator_command)
        multiprocessing.util.Finalize(None, _worker_evaluator.close, exitpriority=0)


def _run_cell(cell: tuple) -> None:
    _execute_run(*cell, _worker_evaluator)


def cmd_run(args: argparse.Namespace) -> int:
    tasks = args.task.split(",")
    methods = args.method.split(",")
    # Every input is read and checked before the manifest, the first write.
    for task in tasks:
        if task not in catalog.task_ids():
            raise ValueError(f"unknown task {task!r}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    evaluator_command = _evaluator_argv(args.evaluator)
    _distinct(tasks, "tasks")
    _distinct(methods, "methods")
    seeds = _parse_seeds(args.seeds)
    override_file, overrides = _catalog_override()
    spaces = {task: catalog.get_environment(task).with_space(overrides.get(task)).space for task in tasks}
    for method in methods:
        configs = [OptimizerConfig(method=method, budget=args.budget, seed=seed) for seed in seeds]
        for task, space in spaces.items():  # a method's `check` reads only the space
            configs[0].check(space, task)
    warm_file, warm = _read_warmstart(args.warmstart, spaces) if args.warmstart else (None, {})

    manifest = {
        "tasks": tasks,
        "methods": methods,
        "seeds": seeds,
        "budget": args.budget,
        "evaluator": evaluator_command,
        "catalog_override": override_file,
        "warmstart": warm_file,
        "output_root": os.path.abspath(args.out),
        "catalog_version": catalog.CATALOG_VERSION,
        "harness_version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    # Manifest goes down before any evaluation happens; every cell searches the spaces it records.
    analytics.write_manifest(args.out, manifest)

    cells = [
        (task, method, seed, args.budget, args.out, overrides.get(task), warm.get(task, []))
        for task in tasks
        for method in methods
        for seed in seeds
    ]
    # A worker takes the next cell when it is free; leaving the pool ends every worker and its child.
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=args.jobs, initializer=_start_worker, initargs=(evaluator_command,)
        ) as pool:
            list(pool.map(_run_cell, cells))
    else:
        evaluator = SubprocessEvaluator(evaluator_command) if evaluator_command else None
        with contextlib.closing(evaluator) if evaluator else contextlib.nullcontext():
            for cell in cells:
                _execute_run(*cell, evaluator)
    print(f"completed {len(cells)}/{len(cells)} runs under {args.out}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    run_set = analytics.load_run_set(args.roots)
    if len(run_set.methods) < 2:
        print("warning: single method; nothing to rank, so rank_table.csv reads N/A", file=sys.stderr)

    os.makedirs(args.out, exist_ok=True)
    table = analytics.rank_table(run_set)
    if args.group_by == "environment":
        table = analytics.group_rank_table(table, lambda task: task.split("-", 1)[0])
    analytics.write_rank_table_csv(table, os.path.join(args.out, "rank_table.csv"))
    tasks, mat = analytics.pairwise_rho_matrix(table)
    analytics.write_rho_matrix_csv(tasks, mat, os.path.join(args.out, "pairwise_rho.csv"))
    written = analytics.write_convergence_data(run_set, os.path.join(args.out, "convergence"))
    for task, absent in table.missing.items():
        print(f"note: {task}: no usable runs for {', '.join(absent)} (flagged N/A)")
    rho, pairs = analytics.mean_rho(mat)
    if pairs:
        print(f"mean pairwise Spearman rho at 100% budget: {rho:.6f} over {pairs} usable pairs")
    else:
        print("mean pairwise Spearman rho at 100% budget: N/A "
              "(no two rankings share 3 methods that do not all tie)")
    print(
        f"wrote rank_table.csv, pairwise_rho.csv, and {len(written)} "
        f"convergence series under {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _read_json(path: str):
    """The JSON value in the file at `path`; bad JSON or undecodable text raises ValueError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # covers JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from None


def _strict_json(value):
    """`value` with each non-finite float as the string "NaN", "Infinity" or "-Infinity"; JSON has no number for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.task not in catalog.task_ids():
        raise ValueError(f"unknown task {args.task!r}")
    design = _read_json(args.design)
    payload = _read_json(args.metrics)
    if not isinstance(design, dict) or not isinstance(payload, dict):
        raise ValueError("design and metrics files must contain JSON objects")
    _, overrides = _catalog_override()
    env = catalog.get_environment(args.task).with_space(overrides.get(args.task))
    inputs = DiagnosticInputs(
        environment=payload.get("environment", args.task),
        design_id=design.get("name") or payload.get("design_id", "design"),
        space=env.space,
        design_params=design,
        metrics=payload.get("metrics", payload),
        artifacts=payload.get("model_artifacts", {}),
        images=payload.get("images"),
        profile=env.diagnostics_profile,
        design_refs=(os.path.abspath(args.design),),
    )
    bundle = build_evidence_bundle(
        inputs, timestamp_utc=datetime.datetime.now(datetime.timezone.utc).isoformat()
    )

    with open(args.out, "w") as fh:
        json.dump(_strict_json(bundle), fh, indent=2, allow_nan=False)
        fh.write("\n")
    worst = worst_status(bundle)
    print(f"wrote {args.out} (worst status: {worst})")
    return _DIAGNOSE_EXIT.get(worst, 0)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aerobench",
        description="Benchmark harness for aerodynamic-style design optimization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog tasks")
    p_list.add_argument("--filter", action="append", metavar="KEY=VALUE")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run optimizers on tasks")
    p_run.add_argument("--task", required=True, help="task id(s), comma-separated")
    p_run.add_argument("--method", required=True, help="method(s), comma-separated")
    p_run.add_argument("--seeds", required=True, help="e.g. 0,1,2 or 0-9")
    p_run.add_argument("--budget", type=int, required=True)
    p_run.add_argument("--out", default="runs")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--warmstart", metavar="CSV")
    p_run.add_argument("--evaluator", metavar="CMD", help="external evaluator command")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="rank tables and plot data from runs")
    p_cmp.add_argument("roots", nargs="+", help="run output roots")
    p_cmp.add_argument("--group-by", choices=("task", "environment"), default="task",
                       help="environment: median of per-task ranks over each task-id prefix")
    p_cmp.add_argument("--out", default="comparison")
    p_cmp.set_defaults(func=cmd_compare)

    p_diag = sub.add_parser("diagnose", help="evidence bundle for one design")
    p_diag.add_argument("--design", required=True)
    p_diag.add_argument("--metrics", required=True)
    p_diag.add_argument("--task", required=True)
    p_diag.add_argument("--out", default="evidence_bundle.json")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # ValueError covers SpaceError, ConfigurationError, AnalyticsError, bad JSON and undecodable text.
    try:
        return args.func(args)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
