"""Cross-run statistics: best-so-far curves, normalized ranks, Spearman
correlations, and median/IQR summaries over recorded run directories.

A run set is a collection of trajectories keyed by (task, method, seed).
Rankings are per task at a budget fraction; normalized rank maps the best
method to 0 and the worst to 1, with ties sharing average ranks. Missing
(did-not-complete) methods are excluded pairwise from correlations.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_BUDGET_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)

MAXIMIZE = "maximize"
MINIMIZE = "minimize"


class AnalyticsError(ValueError):
    """Invalid inputs for an analytics computation."""


# ---------------------------------------------------------------------------
# Trajectory-level statistics
# ---------------------------------------------------------------------------


def best_so_far_at(
    rewards: Sequence[float | None], budget: int, fraction: float
) -> float:
    """Best reward among the first ceil(fraction * budget) evaluations.

    Trajectories shorter than the prefix (early termination) extend their
    last best. Error evaluations (None) are skipped.
    """
    return _best_at(_running_best(rewards), budget, fraction)


def _running_best(rewards: Sequence[float | None]) -> list[float | None]:
    """Entry i is the best reward among rewards[:i + 1], skipping errors.

    `r > best` is the comparison `max()` makes, so ties and NaN resolve as a
    prefix max would. Leading error rows fall forward to the first finite
    reward; a run with no successful evaluation stays all None.
    """
    curve: list[float | None] = []
    best = None
    for r in rewards:
        if r is not None and (best is None or r > best):
            best = r
        curve.append(best)
    if best is not None:
        lead = curve.count(None)
        curve[:lead] = [curve[lead]] * lead
    return curve


def _best_at(curve: Sequence[float | None], budget: int, fraction: float) -> float:
    """Look up `best_so_far_at` on a curve from `_running_best`."""
    if not 0.0 < fraction <= 1.0:
        raise AnalyticsError("fraction must be in (0, 1]")
    if not curve:
        raise AnalyticsError("empty trajectory")
    n = math.ceil(fraction * budget)
    # A prefix of pure error rows (or an empty one) still extends: the curve
    # holds the first finite reward there, or None if the whole run errored.
    best = curve[max(min(n, len(curve)), 1) - 1]
    if best is None:
        raise AnalyticsError("trajectory contains no successful evaluations")
    return best


def normalized_rank(
    values: Mapping[str, float], sense: str = MAXIMIZE
) -> dict[str, float]:
    """Map method scores to [0, 1] ranks: best method 0, worst 1.

    Ties share the average rank before the affine map. If all values are
    equal, every method gets 0.5 by convention.
    """
    if len(values) < 2:
        raise AnalyticsError("need at least 2 methods to rank")
    if sense not in (MAXIMIZE, MINIMIZE):
        raise AnalyticsError(f"unknown sense {sense!r}")
    methods = list(values)
    scores = np.array([float(values[m]) for m in methods])
    # Rank 1 = best: ascending for minimization, descending for maximization.
    keyed = scores if sense == MINIMIZE else -scores
    ranks = _average_ranks(keyed)
    lo, hi = ranks.min(), ranks.max()
    if hi == lo:
        return {m: 0.5 for m in methods}
    scaled = (ranks - lo) / (hi - lo)
    return {m: float(s) for m, s in zip(methods, scaled)}


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = 0.5 * (i + j) + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman correlation: Pearson correlation of average ranks."""
    if len(a) != len(b):
        raise AnalyticsError("rankings must have equal length")
    if len(a) < 3:
        raise AnalyticsError("need at least 3 methods")
    ra = _average_ranks(np.asarray(a, dtype=float))
    rb = _average_ranks(np.asarray(b, dtype=float))
    sa = ra - ra.mean()
    sb = rb - rb.mean()
    denom = math.sqrt(float(sa @ sa) * float(sb @ sb))
    if denom == 0.0:
        raise AnalyticsError("degenerate (zero-variance) ranking")
    return float(sa @ sb) / denom


def mean_pairwise_spearman(
    rankings: Sequence[Mapping[str, float]],
) -> float:
    """Mean Spearman rho over all unordered pairs of task rankings.

    Each pair uses only the methods present in both rankings; pairs with
    fewer than 3 shared methods (or degenerate rankings) are excluded.
    """
    if len(rankings) < 2:
        raise AnalyticsError("need at least 2 rankings")
    rhos = []
    for i in range(len(rankings)):
        for j in range(i + 1, len(rankings)):
            shared = sorted(set(rankings[i]) & set(rankings[j]))
            if len(shared) < 3:
                continue
            try:
                rhos.append(
                    spearman_rho(
                        [rankings[i][m] for m in shared],
                        [rankings[j][m] for m in shared],
                    )
                )
            except AnalyticsError:
                continue
    if not rhos:
        raise AnalyticsError("no usable ranking pairs")
    return float(np.mean(rhos))


def median_iqr(values: Sequence[float]) -> tuple[float, float, float]:
    """(median, q25, q75) using linear interpolation between order stats."""
    if not len(values):
        raise AnalyticsError("empty values")
    arr = np.asarray(values, dtype=float)
    q25, med, q75 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    return float(med), float(q25), float(q75)


# ---------------------------------------------------------------------------
# Run-directory ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    task: str
    method: str
    seed: int
    budget: int
    rewards: tuple[float | None, ...]
    sense: str = MAXIMIZE

    @cached_property
    def _curve(self) -> list[float | None]:
        return _running_best(self.rewards)

    def best_so_far_at(self, fraction: float) -> float:
        """`best_so_far_at` of this run; its curve is computed once."""
        return _best_at(self._curve, self.budget, fraction)


@dataclass(frozen=True)
class RunSet:
    records: tuple[RunRecord, ...]
    budget_grid: tuple[float, ...] = DEFAULT_BUDGET_GRID

    def __post_init__(self) -> None:
        seen = set()
        index: dict[tuple[str, str], list[RunRecord]] = {}
        for r in self.records:
            key = (r.task, r.method, r.seed)
            if key in seen:
                raise AnalyticsError(f"duplicate run {key}")
            seen.add(key)
            index.setdefault((r.task, r.method), []).append(r)
        object.__setattr__(self, "_index", index)

    @property
    def tasks(self) -> list[str]:
        return sorted({task for task, _ in self._index})

    @property
    def methods(self) -> list[str]:
        return sorted({method for _, method in self._index})

    def runs(self, task: str, method: str) -> list[RunRecord]:
        return list(self._index.get((task, method), ()))


def read_run_dir(path: str) -> RunRecord:
    """Read one seed directory (results.csv + resolved_config.json)."""
    with open(os.path.join(path, "resolved_config.json")) as fh:
        config = json.load(fh)
    rewards: list[float | None] = []
    with open(os.path.join(path, "results.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None:
            if "reward" not in header:
                raise AnalyticsError(f"{path}: results.csv has no reward column")
            col = header.index("reward")
            for row in reader:
                if not row:
                    continue  # blank line, skipped as csv.DictReader does
                raw = row[col]
                rewards.append(float(raw) if raw not in ("", "None") else None)
    return RunRecord(
        task=config["task"],
        method=config["method"],
        seed=int(config["seed"]),
        budget=int(config["budget"]),
        rewards=tuple(rewards),
        sense=config.get("sense", MAXIMIZE),
    )


def load_run_set(
    roots: Iterable[str], budget_grid: Sequence[float] = DEFAULT_BUDGET_GRID
) -> RunSet:
    """Scan `<root>/<task>/<method>/seed<k>/` layouts into a RunSet."""
    records = []
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            if "results.csv" in filenames and "resolved_config.json" in filenames:
                records.append(read_run_dir(dirpath))
                dirnames.clear()
    if not records:
        raise AnalyticsError(f"no runs found under {list(roots)}")
    return RunSet(records=tuple(records), budget_grid=tuple(budget_grid))


# ---------------------------------------------------------------------------
# Rank tables and correlation matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTable:
    """Per (task, fraction) normalized ranks plus cross-task aggregates."""

    fractions: tuple[float, ...]
    per_task: Mapping[str, Mapping[float, Mapping[str, float]]]
    missing: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def aggregate(self, fraction: float) -> dict[str, tuple[float, float, float]]:
        """method -> (median, q25, q75) of normalized rank across tasks."""
        out = {}
        methods = sorted(
            {m for by_frac in self.per_task.values() for m in by_frac[fraction]}
        )
        for m in methods:
            vals = [
                by_frac[fraction][m]
                for by_frac in self.per_task.values()
                if m in by_frac[fraction]
            ]
            out[m] = median_iqr(vals)
        return out


def _method_score(run_set: RunSet, task: str, method: str, fraction: float) -> float | None:
    vals = []
    for r in run_set.runs(task, method):
        try:
            vals.append(r.best_so_far_at(fraction))
        except AnalyticsError:
            continue
    if not vals:
        return None
    return float(np.median(vals))


def rank_table(run_set: RunSet) -> RankTable:
    """Median-seed normalized rank of each method per task and fraction."""
    per_task: dict[str, dict[float, dict[str, float]]] = {}
    missing: dict[str, tuple[str, ...]] = {}
    for task in run_set.tasks:
        per_task[task] = {}
        absent = []
        for frac in run_set.budget_grid:
            scores = {}
            for method in run_set.methods:
                s = _method_score(run_set, task, method, frac)
                if s is None:
                    if method not in absent:
                        absent.append(method)
                    continue
                scores[method] = s
            if len(scores) >= 2:
                per_task[task][frac] = normalized_rank(scores, sense=MAXIMIZE)
            else:
                per_task[task][frac] = {m: 0.5 for m in scores}
        if absent:
            missing[task] = tuple(absent)
    return RankTable(
        fractions=run_set.budget_grid, per_task=per_task, missing=missing
    )


def pairwise_rho_matrix(
    run_set: RunSet, fraction: float = 1.0
) -> tuple[list[str], np.ndarray]:
    """Task-by-task Spearman rho of method scores at one budget fraction."""
    tasks = run_set.tasks
    rankings = []
    for task in tasks:
        scores = {
            m: s
            for m in run_set.methods
            if (s := _method_score(run_set, task, m, fraction)) is not None
        }
        rankings.append(scores)
    n = len(tasks)
    mat = np.full((n, n), np.nan)
    for i in range(n):
        mat[i, i] = 1.0
        for j in range(i + 1, n):
            shared = sorted(set(rankings[i]) & set(rankings[j]))
            if len(shared) < 3:
                continue
            try:
                rho = spearman_rho(
                    [rankings[i][m] for m in shared],
                    [rankings[j][m] for m in shared],
                )
            except AnalyticsError:
                continue
            mat[i, j] = mat[j, i] = rho
    return tasks, mat


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def write_rank_table_csv(table: RankTable, path: str) -> None:
    methods = sorted(
        {
            m
            for by_frac in table.per_task.values()
            for ranks in by_frac.values()
            for m in ranks
        }
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method"] + [f"{int(round(f * 100))}%" for f in table.fractions]
        )
        aggregates = []
        for frac in table.fractions:
            try:
                aggregates.append(table.aggregate(frac))
            except KeyError:
                aggregates.append({})
        for m in methods:
            row = [m]
            for agg in aggregates:
                if m in agg:
                    med, q25, q75 = agg[m]
                    row.append(f"{med:.4f} [{q25:.4f}, {q75:.4f}]")
                else:
                    row.append("N/A")
            writer.writerow(row)


def write_rho_matrix_csv(tasks: list[str], mat: np.ndarray, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task"] + tasks)
        for i, task in enumerate(tasks):
            writer.writerow(
                [task]
                + [
                    "N/A" if math.isnan(mat[i, j]) else f"{mat[i, j]:.6f}"
                    for j in range(len(tasks))
                ]
            )


def write_convergence_data(
    run_set: RunSet, out_dir: str, points: int = 50
) -> list[str]:
    """Per (task, method) median/IQR best-so-far series as plot-data CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    fractions = [(i + 1) / points for i in range(points)]
    written = []
    for task in run_set.tasks:
        for method in run_set.methods:
            runs = run_set.runs(task, method)
            if not runs:
                continue
            # A run that errors at one fraction errors at all of them (empty
            # or all-error), so the usable runs are the same for every point.
            curves = []
            for r in runs:
                try:
                    curves.append([r.best_so_far_at(frac) for frac in fractions])
                except AnalyticsError:
                    continue
            rows = []
            if curves:
                # One (points x runs) quantile call; each row is the same
                # linear interpolation `median_iqr` computes per point.
                q25, med, q75 = np.quantile(
                    np.array(curves, dtype=float).T, [0.25, 0.5, 0.75], axis=1, method="linear"
                )
                rows = zip(fractions, med.tolist(), q25.tolist(), q75.tolist())
            path = os.path.join(out_dir, f"convergence_{task}_{method}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["fraction", "median", "q25", "q75"])
                for row in rows:
                    writer.writerow([f"{row[0]:.6f}"] + [repr(v) for v in row[1:]])
            written.append(path)
    return written
