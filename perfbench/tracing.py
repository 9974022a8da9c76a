"""Outside-in span tracing of aerobench's layers.

Every span is recorded by wrapping a public function or method of the
package from the outside; no aerobench source is changed. Wrappers are
installed only for a traced pass and removed afterwards, so untraced passes
run the unmodified code.

Spans are kept in memory as flat lists (name, start, end, parent, tag) and
written out once, when the benchmark ends. A span's self time is its
duration minus the durations of its direct children; the calls are
synchronous on one thread, so direct children never overlap.
"""
from __future__ import annotations

import functools
import json
import math
import time

import aerobench.analytics as analytics
import aerobench.cli as cli
import aerobench.diagnostics as diagnostics
import aerobench.optimizers as optimizers
from aerobench.problems import catalog
from aerobench.problems.base import ProblemEnvironment
from aerobench.problems.subproc import SubprocessEvaluator
from aerobench.space import ParamSpace

PASS = "bench.pass"
CELL = "cli.cell"
RUN = "optimizers.run"
EVALUATE = "problems.evaluate"
EVALUATOR = "problems.evaluator"
ROUND_TRIP = "subproc.round_trip"
VALIDATE = "space.validate"
NORMALIZE = "space.normalize"
DENORMALIZE = "space.denormalize"
LOAD = "analytics.load"
RANK = "analytics.rank"
CONVERGENCE = "analytics.convergence"
BUNDLE = "diagnostics.bundle"
CHECKS = "diagnostics.checks"

METHODS = ("lbfgsb", "pso", "cmaes", "evolve", "bo")

# Which layer a span's self time belongs to, for the wall-time split.
LAYER_OF = {
    PASS: "unattributed",
    CELL: "cli",
    RUN: "optimizers",
    EVALUATE: "problems_harness",
    EVALUATOR: "problems_evaluator",
    ROUND_TRIP: "subproc",
    VALIDATE: "space",
    NORMALIZE: "space",
    DENORMALIZE: "space",
    LOAD: "analytics",
    RANK: "analytics",
    CONVERGENCE: "analytics",
    BUNDLE: "diagnostics",
    CHECKS: "diagnostics",
}
LAYERS = (
    "optimizers",
    "space",
    "problems_harness",
    "problems_evaluator",
    "subproc",
    "cli",
    "analytics",
    "diagnostics",
)

def _units() -> dict[str, str]:
    units = {"optimizers.evals": "count", "optimizers.self_us_per_eval": "us"}
    units.update({f"optimizers.self_us_per_eval.{m}": "us" for m in METHODS})
    for op in ("validate", "normalize", "denormalize"):
        units[f"space.{op}_calls_per_eval"] = "count"
        units[f"space.{op}_us_per_call"] = "us"
    units.update({
        "problems.harness_us_per_eval": "us",
        "problems.evaluator_us_per_call": "us",
        "problems.point_metrics_calls_per_eval": "count",
        "subproc.round_trip_us_p50": "us",
        "subproc.round_trip_us_p99": "us",
        "subproc.requests": "count",
        "subproc.errors": "count",
        "cli.write_us_per_eval": "us",
        "analytics.rows": "count",
        "analytics.load_s": "s",
        "analytics.rank_s": "s",
        "analytics.convergence_s": "s",
        "diagnostics.bundles": "count",
        "diagnostics.checks_us_per_bundle": "us",
        "diagnostics.validate_us_per_bundle": "us",
    })
    units.update({f"split.{layer}": "ratio" for layer in LAYERS})
    units.update({
        "trace.unattributed_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
        "setup.import_s": "s",
        "setup.build_s": "s",
        "setup.spawn_s": "s",
        "machine.ref_kernel_ms": "ms",
    })
    return units


# Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = _units()


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[str] = []
        self.failed: list[bool] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, tag_of=None, count_of=None):
        """Wrap `fn` so that every call records one span named `name`.

        `tag_of(args)` labels the span; `count_of(result)` adds to the
        counter `name`.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.tags.append(tag_of(args) if tag_of is not None else "")
            self.failed.append(False)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    self.counts[name] = self.counts.get(name, 0) + count_of(result)
                return result
            except BaseException:
                self.failed[idx] = True
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def run_pass(self, fn):
        """Run one benchmark pass under a root span."""
        return self.span(PASS, fn)()

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, name: str, tag_of=None, count_of=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, tag_of, count_of))

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        method_of_config = lambda args: args[1].method  # noqa: E731
        self._patch(cli, "_execute_run", CELL, lambda args: args[1])
        self._patch(cli, "run_with_budget", RUN, method_of_config)
        self._patch(optimizers, "run_with_budget", RUN, method_of_config)
        self._patch(ProblemEnvironment, "evaluate", EVALUATE)
        self._patch(SubprocessEvaluator, "point_metrics", ROUND_TRIP)
        self._patch(ParamSpace, "validate", VALIDATE)
        self._patch(ParamSpace, "normalize", NORMALIZE)
        self._patch(ParamSpace, "denormalize", DENORMALIZE)
        self._patch(
            analytics, "load_run_set", LOAD,
            count_of=lambda run_set: sum(len(r.rewards) for r in run_set.records),
        )
        for fn in ("rank_table", "pairwise_rho_matrix", "write_rank_table_csv", "write_rho_matrix_csv"):
            self._patch(analytics, fn, RANK)
        self._patch(analytics, "write_convergence_data", CONVERGENCE)
        self._patch(diagnostics, "build_evidence_bundle", BUNDLE)
        for fn in ("check_bounds_and_presence", "check_geometry", "check_aero"):
            self._patch(diagnostics, fn, CHECKS)
        # The CLI builds a fresh environment per cell; give each one a timed
        # evaluator the same way an external evaluator is attached.
        original_get = catalog.get_environment
        self._undo.append((catalog, "get_environment", original_get))
        catalog.get_environment = lambda *a, **k: self.with_timed_evaluator(original_get(*a, **k))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def with_timed_evaluator(self, env: ProblemEnvironment) -> ProblemEnvironment:
        return env.with_evaluator(_TimedEvaluator(env.evaluator, self))

    # -- output --------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i in range(len(self.names)):
                fh.write(
                    json.dumps(
                        [i, self.names[i], self.parents[i], self.tags[i],
                         self.starts[i], self.ends[i], self.failed[i]]
                    )
                    + "\n"
                )

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out


class _TimedEvaluator:
    """Evaluator proxy that records a span per `point_metrics` call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.point_metrics = tracer.span(EVALUATOR, inner.point_metrics)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[k - 1]


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `n_passes` identical traced passes.

    Counts are reported per pass (or per evaluation, bundle or compare), so
    they repeat exactly however many passes fit in the run.
    """
    self_t = tracer.self_times()
    names = tracer.names
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(names):
        total[name] = total.get(name, 0.0) + self_t[i]
        calls[name] = calls.get(name, 0) + 1

    def n(name: str) -> int:
        return calls.get(name, 0)

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    evals = n(EVALUATE)
    bundles = n(BUNDLE)
    wall = sum(e - s for name, s, e in zip(names, tracer.starts, tracer.ends) if name == PASS)
    out: dict[str, float] = {}

    run_self: dict[str, float] = {m: 0.0 for m in METHODS}
    run_evals: dict[str, int] = {m: 0 for m in METHODS}
    for i, name in enumerate(names):
        if name == RUN:
            run_self[tracer.tags[i]] += self_t[i]
        elif name == EVALUATE:
            p = tracer.parents[i]
            # Charge the evaluation to the optimizer run that encloses it.
            while p >= 0 and names[p] != RUN:
                p = tracer.parents[p]
            if p >= 0:
                run_evals[tracer.tags[p]] += 1
    out["optimizers.evals"] = per(evals, n_passes)
    out["optimizers.self_us_per_eval"] = per(total.get(RUN, 0.0) * 1e6, evals)
    for m in METHODS:
        out[f"optimizers.self_us_per_eval.{m}"] = per(run_self[m] * 1e6, run_evals[m])

    for short, name in (("validate", VALIDATE), ("normalize", NORMALIZE), ("denormalize", DENORMALIZE)):
        out[f"space.{short}_calls_per_eval"] = per(n(name), evals)
        out[f"space.{short}_us_per_call"] = per(total.get(name, 0.0) * 1e6, n(name))

    out["problems.harness_us_per_eval"] = per(total.get(EVALUATE, 0.0) * 1e6, evals)
    out["problems.evaluator_us_per_call"] = per(total.get(EVALUATOR, 0.0) * 1e6, n(EVALUATOR))
    out["problems.point_metrics_calls_per_eval"] = per(n(EVALUATOR), evals)

    trips = sorted(
        (e - s) * 1e6
        for name, s, e in zip(names, tracer.starts, tracer.ends)
        if name == ROUND_TRIP
    )
    errors = sum(1 for name, f in zip(names, tracer.failed) if name == ROUND_TRIP and f)
    out["subproc.round_trip_us_p50"] = _percentile(trips, 0.50)
    out["subproc.round_trip_us_p99"] = _percentile(trips, 0.99)
    out["subproc.requests"] = per(len(trips), n_passes)
    out["subproc.errors"] = per(errors, n_passes)

    out["cli.write_us_per_eval"] = per(total.get(CELL, 0.0) * 1e6, evals)

    compares = n(LOAD)
    out["analytics.rows"] = per(tracer.counts.get(LOAD, 0), compares)
    out["analytics.load_s"] = per(total.get(LOAD, 0.0), compares)
    out["analytics.rank_s"] = per(total.get(RANK, 0.0), compares)
    out["analytics.convergence_s"] = per(total.get(CONVERGENCE, 0.0), compares)

    out["diagnostics.bundles"] = per(bundles, n_passes)
    out["diagnostics.checks_us_per_bundle"] = per(total.get(CHECKS, 0.0) * 1e6, bundles)
    out["diagnostics.validate_us_per_bundle"] = per(total.get(BUNDLE, 0.0) * 1e6, bundles)

    share = {layer: 0.0 for layer in LAYERS}
    for name, t in total.items():
        layer = LAYER_OF[name]
        if layer in share:
            share[layer] += t
    for layer in LAYERS:
        out[f"split.{layer}"] = per(share[layer], wall)
    out["trace.unattributed_ratio"] = per(total.get(PASS, 0.0), wall)
    return out
