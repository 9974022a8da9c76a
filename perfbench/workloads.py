"""The benchmark's workloads.

Each workload repeats one fixed, seeded pass of work. `setup` builds what
the pass needs (environments, the evaluator child); `prepare_inputs`
generates its inputs from the seed; `run_pass` is the timed region; and
`check_pass` reads the pass's outputs afterwards, counts the items done and
failed, and records every output problem it finds. Passes of one run repeat
the same work, so their outputs must be byte-identical.

Why these workloads: each layer a change is likely to optimise does most
of the work in one workload and almost none in another.

- grid-stand-in: the paper's main use, an `aerobench run` grid over all
  catalog tasks. Evaluator and `problems` harness take most of the time.
- bo-gp: Bayesian optimisation, where the GP model is nearly all the time
  and the evaluator and harness almost none.
- external-wire: the multi-point tasks through an external evaluator child,
  so the pipe round trip replaces the in-process evaluator.
- post-analysis: `aerobench compare` over a seeded run tree and evidence
  bundles over seeded designs; the only workload in `analytics` and
  `diagnostics`.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import statistics
import sys
import time

import jsonschema
import numpy as np

import aerobench.cli as cli
import aerobench.diagnostics as diagnostics
import aerobench.optimizers as optimizers
from aerobench.optimizers import OptimizerConfig
from aerobench.problems import catalog
from aerobench.problems.subproc import SubprocessEvaluator
from runtree import write_run_tree

HERE = os.path.dirname(os.path.abspath(__file__))

MULTIPOINT_TASKS = (
    "airfoil-drag-multipoint",
    "bwb-drag-multipoint",
    "transonic-range-multipoint",
    "delta-ld-robust",
)


def build_environments(tasks) -> dict[str, float]:
    """Build (and close) every environment of `tasks`; returns its set-up split."""
    start = time.perf_counter()
    for task in tasks:
        catalog.get_environment(task).close()
    return {"build_s": time.perf_counter() - start, "spawn_s": 0.0}


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """One named workload; subclasses fill in the pass and its checks."""

    name = ""
    item = ""
    alias = ""
    pass_items = 0  # items one pass completes, for the throughput

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def prepare_inputs(self) -> None:
        """Generate the pass inputs from the seed (not timed)."""

    def setup(self) -> dict[str, float]:
        """Build what the pass needs; returns build/spawn seconds."""
        return {"build_s": 0.0, "spawn_s": 0.0}

    def run_pass(self, out_dir: str, tracer) -> None:
        raise NotImplementedError

    def check_pass(self, out_dir: str) -> tuple[int, int]:
        """Check one pass's outputs; returns (items attempted, items failed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything `setup` started."""

    def report(self) -> list[str]:
        """Extra lines describing the checked outputs."""
        return []

    def _same_as_first_pass(self, digests: dict[str, str]) -> None:
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in set(digests) | set(self.reference)
                             if digests.get(k) != self.reference.get(k))
            self.problems.append(f"outputs differ from the first pass: {changed[:5]}")


class CliRunWorkload(Workload):
    """`aerobench run` in-process through `aerobench.cli.main`."""

    item = "evaluations"
    alias = "evals_per_s"

    def __init__(self, seed, work_dir, tasks, methods, seeds, budget):
        super().__init__(seed, work_dir)
        self.tasks = list(tasks)
        self.methods = list(methods)
        self.seeds = list(seeds)
        self.budget = budget
        self.pass_items = len(self.tasks) * len(self.methods) * len(self.seeds) * budget
        self._rc = 0
        self._stdout = ""

    def setup(self):
        return build_environments(self.tasks)

    def run_pass(self, out_dir, tracer):
        argv = [
            "run",
            "--task", ",".join(self.tasks),
            "--method", ",".join(self.methods),
            "--seeds", ",".join(str(s) for s in self.seeds),
            "--budget", str(self.budget),
            "--out", out_dir,
            "--jobs", "1",
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self._rc = cli.main(argv)
        self._stdout = buf.getvalue()

    def check_pass(self, out_dir):
        n_cells = len(self.tasks) * len(self.methods) * len(self.seeds)
        if self._rc != 0 or f"completed {n_cells}/{n_cells}" not in self._stdout:
            self.problems.append(f"aerobench run exited {self._rc}: {self._stdout.strip()}")
        attempted = failed = 0
        digests = {}
        for task in self.tasks:
            for method in self.methods:
                for seed in self.seeds:
                    cell = os.path.join(task, method, f"seed{seed}")
                    path = os.path.join(out_dir, cell, "results.csv")
                    attempted += self.budget
                    if not os.path.isfile(path):
                        self.problems.append(f"{cell}: no results.csv")
                        failed += self.budget
                        continue
                    with open(path, newline="") as fh:
                        rows = list(csv.DictReader(fh))
                    errors = sum(1 for r in rows if r["reward"] == "")
                    failed += errors + max(0, self.budget - len(rows))
                    if len(rows) != self.budget or rows[-1]["n_evals"] != str(self.budget):
                        self.problems.append(f"{cell}: {len(rows)} rows for budget {self.budget}")
                    if errors:
                        self.problems.append(f"{cell}: {errors} error rows on a stand-in task")
                    digests[cell] = sha256_file(path)
        self._same_as_first_pass(digests)
        return attempted, failed


class ExternalWireWorkload(Workload):
    """Multi-point tasks evaluated through one benchmark-owned child.

    `aerobench run --evaluator CMD` attaches a `SubprocessEvaluator` to each
    cell's environment; here one evaluator, spawned during set-up, is
    attached to every cell the same way, so the child starts once and each
    pass times only the round trips.
    """

    name = "external-wire"
    item = "evaluations"
    alias = "evals_per_s"
    methods = ("pso", "cmaes")
    budget = 40
    pass_items = len(MULTIPOINT_TASKS) * len(methods) * budget

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.envs = {}
        self.evaluator = None
        self._trajectories = {}
        self._in_process = None

    def setup(self):
        # Parent, pump thread and child share one CPU (threads and children
        # inherit the calling thread's affinity). Across CPUs each round trip
        # waits on cross-CPU wake-ups, whose latency on a shared host moved
        # pass walls by up to 3x within one run; on one CPU a round trip
        # costs its hand-offs, syscalls and JSON work.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        start = time.perf_counter()
        self.envs = {task: catalog.get_environment(task) for task in MULTIPOINT_TASKS}
        built = time.perf_counter()
        command = [sys.executable, os.path.join(HERE, "wire_evaluator.py"), *MULTIPOINT_TASKS]
        self.evaluator = SubprocessEvaluator(command, timeout=60.0)
        env = self.envs[MULTIPOINT_TASKS[0]]
        center = env.space.denormalize(np.full(env.space.relaxed_dim, 0.5))
        self.evaluator.point_metrics(center, env.points[0], 0)
        return {"build_s": built - start, "spawn_s": time.perf_counter() - built}

    def _run_cells(self, envs, tracer):
        out = {}
        for task, env in envs.items():
            if tracer is not None:
                env = tracer.with_timed_evaluator(env)
            for method in self.methods:
                config = OptimizerConfig(method=method, budget=self.budget, seed=self.seed)
                out[(task, method)] = optimizers.run_with_budget(env, config)
        return out

    def run_pass(self, out_dir, tracer):
        wired = {task: env.with_evaluator(self.evaluator) for task, env in self.envs.items()}
        self._trajectories = self._run_cells(wired, tracer)

    def check_pass(self, out_dir):
        if self._in_process is None:
            self._in_process = self._run_cells(self.envs, None)
        attempted = failed = 0
        digests = {}
        for key, traj in self._trajectories.items():
            cell = "/".join(key)
            attempted += self.budget
            errors = [r.error for r in traj.records if r.error is not None]
            failed += len(errors) + max(0, self.budget - len(traj.records))
            if len(traj.records) != self.budget:
                self.problems.append(f"{cell}: {len(traj.records)} records for budget {self.budget}")
            if errors:
                self.problems.append(f"{cell}: {len(errors)} error rows, first: {errors[0]}")
            wire = [None if r.reward is None else r.reward.hex() for r in traj.records]
            local = [None if r.reward is None else r.reward.hex() for r in self._in_process[key].records]
            if wire != local:
                self.problems.append(f"{cell}: wire rewards differ from in-process rewards")
            digests[cell] = hashlib.sha256(json.dumps(wire).encode()).hexdigest()
        self._same_as_first_pass(digests)
        return attempted, failed

    def close(self):
        if self.evaluator is not None:
            self.evaluator.close()
            self.evaluator = None


class PostAnalysisWorkload(Workload):
    """`aerobench compare` over a seeded run tree, then evidence bundles.

    One pass is `aerobench compare --group-by task` over a run tree of 12
    tasks x 5 methods x 5 seeds x 400 rows, followed by
    `build_evidence_bundle` for 16 seeded designs of each task. Only
    `--group-by task`: the environment grouping relabels seeds with a salted
    `hash()`, so its output is not reproducible across processes.
    """

    name = "post-analysis"
    item = "analysis passes (one compare plus one bundle batch)"
    alias = "analysis_passes_per_s"
    pass_items = 1
    n_seeds = 5
    rows = 400
    per_task = 16
    timestamp = "2026-01-01T00:00:00+00:00"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.tree = os.path.join(work_dir, "tree")
        self.tasks = catalog.task_ids()
        self.methods = optimizers.method_names()
        self.total_rows = 0
        self.inputs = []
        self._rc = 0
        self._bundles = []
        self._failed = []
        self._status_counts = {}
        self._part_walls = {"compare": [], "bundles": []}

    def prepare_inputs(self):
        self.total_rows = write_run_tree(
            self.tree, self.seed, self.tasks, self.methods, self.n_seeds, self.rows
        )
        rng = np.random.default_rng([self.seed, 7])
        for t, task in enumerate(self.tasks):
            env = catalog.get_environment(task)
            token = env.diagnostics_profile.get("compat_token", "none")
            artifacts = {}
            for key in ("base_vtk_path", "norm_stats_path"):
                path = os.path.join(self.work_dir, f"{token}_{key}.dat")
                with open(path, "w") as fh:
                    fh.write(key + "\n")
                artifacts[key] = path
            for k, point in enumerate(env.space.sample_uniform(self.seed * 100 + t, self.per_task)):
                metrics = dict(env.evaluate(point).metrics)
                if rng.random() < 0.5:
                    drag = float(rng.uniform(0.1, 1.2))
                    pressure = drag * float(rng.uniform(0.5, 0.9))
                    metrics["drag"] = drag
                    metrics["drag_pressure"] = pressure
                    metrics["drag_shear"] = (drag - pressure) * float(rng.uniform(0.97, 1.03))
                    metrics["lift"] = float(rng.uniform(-3e5, 3e5))
                images = None
                if rng.random() < 0.5:
                    images = tuple(
                        f"{task}_{k}_{suffix}"
                        for suffix in diagnostics.EXPECTED_IMAGE_SUFFIXES
                        if rng.random() < 0.8
                    )
                self.inputs.append(
                    diagnostics.DiagnosticInputs(
                        environment=task,
                        design_id=f"{task}-{k}",
                        space=env.space,
                        design_params=dict(point.values),
                        metrics=metrics,
                        artifacts=artifacts if rng.random() < 0.5 else {},
                        images=images,
                        profile=env.diagnostics_profile,
                        design_refs=(f"{task}-{k}.json",),
                    )
                )

    def setup(self):
        return build_environments(self.tasks)

    def run_pass(self, out_dir, tracer):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            self._rc = cli.main(["compare", self.tree, "--group-by", "task", "--out", out_dir])
        compared = time.perf_counter()
        self._bundles = []
        self._failed = []
        for inputs in self.inputs:
            try:
                self._bundles.append(
                    diagnostics.build_evidence_bundle(inputs, timestamp_utc=self.timestamp)
                )
            except (ValueError, jsonschema.ValidationError) as exc:
                self._failed.append(f"{inputs.design_id}: {exc!r}")
        if tracer is None:
            self._part_walls["compare"].append(compared - start)
            self._part_walls["bundles"].append(time.perf_counter() - compared)

    def check_pass(self, out_dir):
        attempted = self.total_rows + len(self.inputs)
        failed = len(self._failed)
        digests = {}
        if self._rc != 0:
            self.problems.append(f"aerobench compare exited {self._rc}")
            failed += self.total_rows
        else:
            for dirpath, _, filenames in os.walk(out_dir):
                for fn in filenames:
                    path = os.path.join(dirpath, fn)
                    digests[os.path.relpath(path, out_dir)] = sha256_file(path)
            expected = len(self.tasks) * len(self.methods)
            n_series = sum(1 for k in digests if k.startswith("convergence" + os.sep))
            if n_series != expected:
                self.problems.append(f"{n_series} convergence series, expected {expected}")
            with open(os.path.join(out_dir, "rank_table.csv"), newline="") as fh:
                table = list(csv.reader(fh))
            if [row[0] for row in table[1:]] != sorted(self.methods) or any(
                "N/A" in cell for row in table for cell in row
            ):
                self.problems.append(f"rank table incomplete: {table}")

        for failure in self._failed:
            self.problems.append(f"bundle failed: {failure}")
        if self.reference is None:
            schema = diagnostics.bundle_schema()
            validator = jsonschema.validators.validator_for(schema)(schema)
            for bundle in self._bundles:
                for error in validator.iter_errors(bundle):
                    self.problems.append(f"{bundle['design_id']}: schema: {error.message}")
                for tier, counts in bundle["evidence_bundle"]["summary"].items():
                    for status, n in counts.items():
                        key = f"{tier}.{status}"
                        self._status_counts[key] = self._status_counts.get(key, 0) + n
        payload = json.dumps(self._bundles, sort_keys=True).encode()
        digests["bundles"] = hashlib.sha256(payload).hexdigest()
        self._same_as_first_pass(digests)
        return attempted, failed

    def report(self):
        lines = [f"bundle status counts per pass: {json.dumps(self._status_counts, sort_keys=True)}"]
        for part, count, alias in (
            ("compare", self.total_rows, "compare_rows_per_s"),
            ("bundles", len(self.inputs), "bundles_per_s"),
        ):
            walls = self._part_walls[part]
            if walls:
                rate = statistics.median(count / w for w in walls)
                lines.append(f"{alias} {rate!r} 1/s (median of {len(walls)} untraced passes)")
        return lines


def make(name: str, seed: int, work_dir: str) -> Workload:
    if name == "grid-stand-in":
        wl = CliRunWorkload(
            seed, work_dir, catalog.task_ids(), ("lbfgsb", "pso", "cmaes", "evolve"),
            (2 * seed, 2 * seed + 1), 30,
        )
    elif name == "bo-gp":
        wl = CliRunWorkload(seed, work_dir, ("delta-ld-single", "ceras-fuel-mixed"), ("bo",), (seed,), 45)
    elif name == "external-wire":
        return ExternalWireWorkload(seed, work_dir)
    elif name == "post-analysis":
        return PostAnalysisWorkload(seed, work_dir)
    else:
        raise KeyError(name)
    wl.name = name
    return wl


WORKLOADS = ("grid-stand-in", "bo-gp", "external-wire", "post-analysis")
