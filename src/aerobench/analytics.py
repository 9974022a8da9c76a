"""Cross-run statistics: best-so-far curves, normalized ranks, Spearman
correlations, and median/IQR summaries over recorded run directories.

A run set is a collection of trajectories keyed by (task, method, seed).
Rankings are per task at a budget fraction; normalized rank maps the best
method to 0 and the worst to 1, with ties sharing average ranks. Missing
(did-not-complete) methods are excluded pairwise from correlations, and
medians across tasks or task groups cover only methods ranked on all of them.

This module owns the run directory, writer and reader both. `aerobench run`
writes `manifest.json` at the root before any evaluation, so a partly done
grid stays self-describing, and one directory `<root>/<task>/<method>/seed<k>/`
per run: `resolved_config.json`, `results.csv` (`RESULTS_HEADER`, one row per
evaluation), and `best_design.json` and `warnings.txt` when there are any.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # a run-time import would load the optimizers for `compare`
    from .optimizers import Trajectory

# The budget fractions `rank_table` ranks at: k/5 for k = 1..5, as `RunRecord.best_at(5)` reads them.
BUDGET_GRID = tuple(k / 5 for k in range(1, 6))

RESULTS_HEADER = ("iter", "design_id", "reward", "best_reward", "feasible", "n_evals", "wall_ms")


class AnalyticsError(ValueError):
    """Invalid inputs for an analytics computation."""


# ---------------------------------------------------------------------------
# Rank statistics
# ---------------------------------------------------------------------------


def normalized_rank(values: Mapping[str, float]) -> dict[str, float]:
    """Map method scores, higher better, to [0, 1] ranks: best method 0, worst 1.

    Ties share the average rank before the affine map. If all values are
    equal, every method gets 0.5 by convention.
    """
    if len(values) < 2:
        raise AnalyticsError("need at least 2 methods to rank")
    methods = list(values)
    # Rank 1 = best: descending scores.
    ranks = _average_ranks(-np.array([float(values[m]) for m in methods]))
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


def rho_matrix(rankings: Sequence[Mapping[str, float]]) -> np.ndarray:
    """Spearman rho of every pair of rankings, NaN where a pair is unusable.

    Each pair uses only the methods present in both rankings; pairs with
    fewer than 3 shared methods (or degenerate rankings) are unusable.
    """
    n = len(rankings)
    mat = np.full((n, n), np.nan)
    for i in range(n):
        mat[i, i] = 1.0
        for j in range(i + 1, n):
            shared = sorted(set(rankings[i]) & set(rankings[j]))
            try:
                rho = spearman_rho(
                    [rankings[i][m] for m in shared],
                    [rankings[j][m] for m in shared],
                )
            except AnalyticsError:
                continue
            mat[i, j] = mat[j, i] = rho
    return mat


def mean_rho(mat: np.ndarray) -> tuple[float, int]:
    """Mean of a rho matrix's usable (non-NaN) upper-triangle entries and their count; NaN, 0 for none."""
    upper = mat[np.triu_indices(len(mat), 1)]
    usable = upper[~np.isnan(upper)]
    return (float(np.mean(usable)) if usable.size else math.nan), int(usable.size)


def median_iqr(values: Sequence[float]) -> tuple[float, float, float]:
    """(median, q25, q75) using linear interpolation between order stats."""
    if not len(values):
        raise AnalyticsError("empty values")
    arr = np.asarray(values, dtype=float)
    q25, med, q75 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    return float(med), float(q25), float(q75)


# ---------------------------------------------------------------------------
# Run directories: one writer, one reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    task: str
    method: str
    seed: int
    budget: int
    rewards: tuple[float | None, ...]
    # As the cell records them; a hand-built cell may record neither.
    catalog_version: object = None
    harness_version: object = None

    @cached_property
    def curve(self) -> np.ndarray:
        """The run's best-so-far curve as float64, computed once; empty when
        the run has no successful evaluation.

        Entry i is the best reward among rewards[:i + 1], skipping errors.
        `r > best` is the comparison `max()` makes, so ties and NaN resolve
        as a prefix max would. Leading error rows take the first successful
        reward.
        """
        curve, best = [], None
        for r in self.rewards:
            if r is not None and (best is None or r > best):
                best = r
            curve.append(best)
        if best is None:
            return np.empty(0)
        lead = curve.count(None)
        return np.array([curve[lead]] * lead + curve[lead:], dtype=float)

    @property
    def usable(self) -> bool:
        """Whether the run has a successful evaluation: only then does `best_at` answer."""
        return len(self.curve) > 0

    def best_at(self, points: int) -> np.ndarray:
        """Best reward of a usable run among its first ceil(k/points · budget)
        evaluations, for k = 1..points.

        A run shorter than that (early termination) extends its last best,
        and a prefix of error rows reads the first successful reward.
        """
        # ceil(k · budget / points) in integers: in floats, 7/50 · 100 is 14.000000000000002.
        n = -(-np.arange(1, points + 1) * self.budget // points)
        return self.curve[np.maximum(np.minimum(n, len(self.curve)), 1) - 1]


@dataclass(frozen=True)
class RunSet:
    records: tuple[RunRecord, ...]

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


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def _write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(root: str, manifest: dict) -> None:
    """Create `root` and write the grid's manifest there; refuses a `root` that holds anything."""
    # `compare` reads every results.csv below a root, an old grid's beside the new.
    if os.path.isdir(root) and (held := sorted(os.listdir(root))):
        raise AnalyticsError(f"{root} already holds {held[0]}; give each grid an empty directory")
    os.makedirs(root, exist_ok=True)
    _write_json(os.path.join(root, "manifest.json"), manifest)


def write_run_dir(root: str, trajectory: Trajectory, sense: str) -> None:
    """Write a run's `<root>/<task>/<method>/seed<k>/`: floats as `repr`, an error row's reward empty."""
    config = trajectory.resolved_config
    path = os.path.join(root, config["task"], config["method"], f"seed{config['seed']}")
    os.makedirs(path, exist_ok=True)
    _write_json(os.path.join(path, "resolved_config.json"), {**config, "sense": sense})
    with open(os.path.join(path, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for n, rec in enumerate(trajectory.records, start=1):
            writer.writerow([rec.iteration, rec.design_id, _fmt(rec.reward), _fmt(rec.best_so_far),
                             rec.feasible, n, _fmt(rec.wall_ms)])
    if trajectory.best_design is not None:
        _write_json(os.path.join(path, "best_design.json"), trajectory.best_design.to_json())
    if trajectory.warnings:
        with open(os.path.join(path, "warnings.txt"), "w") as fh:
            fh.write("\n".join(trajectory.warnings) + "\n")


def _read_rewards(path: str, text: str) -> list[float | None]:
    """The reward column of a `results.csv` text as `write_run_dir` writes it: never quoted.

    Each line is split only as far as the reward column. An empty text holds
    no rows, a blank line is skipped and a reward of "" or "None" is an
    error row; a quote, a missing reward column, or a reward that is NaN,
    infinite, text or absent from its row is refused with its line number.
    """
    if '"' in text:
        # Splitting a quoted field on its commas would shift every column after it.
        line = text.count("\n", 0, text.index('"')) + 1
        raise AnalyticsError(f"{path}: results.csv line {line}: holds a quote; write_run_dir writes no quotes")
    header, *lines = text.split("\n") if text else ("reward",)
    names = header.split(",")
    if "reward" not in names:
        raise AnalyticsError(f"{path}: results.csv has no reward column")
    col = names.index("reward")
    rewards: list[float | None] = []
    for n, line in enumerate(lines, start=2):
        if not line:
            continue
        try:
            field = line.split(",", col + 1)[col]
            reward = float(field) if field not in ("", "None") else None
        except (IndexError, ValueError):
            reward = math.nan
        if reward is not None and not math.isfinite(reward):
            raise AnalyticsError(f"{path}: results.csv line {n}: reward is not a finite number")
        rewards.append(reward)
    return rewards


def read_run_dir(path: str) -> RunRecord:
    """Read one seed directory (results.csv + resolved_config.json).

    A reward of "" or "None" is an error row. A malformed or unreadable
    directory, or a quoted `results.csv`, raises AnalyticsError naming it
    and the problem.
    """
    try:
        with open(os.path.join(path, "resolved_config.json")) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise AnalyticsError(f"{path}: resolved_config.json is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise AnalyticsError(f"{path}: resolved_config.json cannot be read: {exc}") from None
    if not isinstance(config, dict):
        raise AnalyticsError(f"{path}: resolved_config.json must hold a JSON object")
    missing = [key for key in ("task", "method", "seed", "budget") if key not in config]
    if missing:
        raise AnalyticsError(f"{path}: resolved_config.json has no {', '.join(missing)}")
    for key in ("seed", "budget"):
        value = config[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise AnalyticsError(f"{path}: resolved_config.json {key} must be an integer, got {value!r}")
    if config["budget"] < 1:
        # Below 1, every fraction would rank the run by its first evaluation alone.
        raise AnalyticsError(f"{path}: resolved_config.json budget must be at least 1, got {config['budget']}")
    for key in ("task", "method"):
        value = config[key]
        # compare names its convergence files after them.
        if not isinstance(value, str) or value in ("", ".", "..") or os.sep in value:
            raise AnalyticsError(
                f"{path}: resolved_config.json {key} must be a file name, got {value!r}"
            )
    try:
        # Universal newlines: CRLF, LF and a lone CR all end a line.
        with open(os.path.join(path, "results.csv")) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AnalyticsError(f"{path}: results.csv cannot be read: {exc}") from None
    rewards = _read_rewards(path, text)
    if len(rewards) > config["budget"]:
        # Ranking reads only the first `budget` rows and would drop the rest unseen.
        raise AnalyticsError(f"{path}: results.csv holds {len(rewards)} rows, more than its budget {config['budget']}")
    return RunRecord(
        task=config["task"],
        method=config["method"],
        seed=config["seed"],
        budget=config["budget"],
        rewards=tuple(rewards),
        catalog_version=config.get("catalog_version"),
        harness_version=config.get("harness_version"),
    )


def _manifest_grid(root: str) -> tuple[str, list, list, list] | None:
    """The path of `root`'s manifest and the tasks, methods and seeds it lists; None if it has none."""
    path = os.path.join(root, "manifest.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise AnalyticsError(f"{path} is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise AnalyticsError(f"{path} cannot be read: {exc}") from None
    keys = ("tasks", "methods", "seeds")
    if not isinstance(manifest, dict) or not all(isinstance(manifest.get(key), list) for key in keys):
        raise AnalyticsError(f"{path} must list the grid's tasks, methods and seeds")
    return path, *(manifest[key] for key in keys)


def load_run_set(roots: Iterable[str]) -> RunSet:
    """Scan `<root>/<task>/<method>/seed<k>/` layouts into a RunSet, refusing
    cells that record different catalog or harness versions, and cells that
    the root's manifest, when it has one, does not list."""
    records = []
    first: dict[str, tuple[object, str]] = {}  # version key -> (value, first cell to record it)
    for root in roots:
        listed = _manifest_grid(root)
        for dirpath, dirnames, filenames in os.walk(root):
            if "results.csv" in filenames and "resolved_config.json" in filenames:
                records.append(record := read_run_dir(dirpath))
                run = (record.task, record.method, record.seed)
                if listed and not all(value in values for value, values in zip(run, listed[1:])):
                    # A cell copied in beside a grid would be ranked as part of it.
                    raise AnalyticsError(
                        f"{dirpath}: {listed[0]} lists no run of task {run[0]!r}, method {run[1]!r}, seed {run[2]!r}"
                    )
                for key in ("catalog_version", "harness_version"):
                    if (value := getattr(record, key)) is not None:
                        seen, cell = first.setdefault(key, (value, dirpath))
                        if value != seen:
                            raise AnalyticsError(f"{cell} and {dirpath} disagree on {key}: {seen!r} and {value!r}")
                dirnames.clear()
    if not records:
        raise AnalyticsError(f"no runs found under {list(roots)}")
    return RunSet(records=tuple(records))


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
        """method -> (median, q25, q75) of normalized rank over the tasks.

        A task that ranks fewer than two methods at `fraction` compares
        nothing and is left out; a method gets an entry only if every task
        left in ranks it.
        """
        rankings = [r for by_frac in self.per_task.values() if len(r := by_frac[fraction]) >= 2]
        common = set(rankings[0]).intersection(*rankings[1:]) if rankings else ()
        return {m: median_iqr([r[m] for r in rankings]) for m in sorted(common)}


def group_rank_table(table: RankTable, group_of: Callable[[str], str]) -> RankTable:
    """Rank table of task groups instead of tasks.

    A group's entry for a method is the median of the method's normalized
    ranks over the group's tasks, as `RankTable.aggregate` takes it (so a
    task ranking fewer than two methods is left out); a method not ranked on
    every task left in has no entry. Ranks are taken within each task first,
    so the grouping does not depend on how rewards scale from task to task.
    """
    groups: dict[str, dict] = {}
    for task in sorted(table.per_task):
        groups.setdefault(group_of(task), {})[task] = table.per_task[task]
    per_group, missing = {}, {}
    for group, per_task in groups.items():
        tasks_of_group = RankTable(fractions=table.fractions, per_task=per_task)
        per_group[group] = {
            frac: {m: stats[0] for m, stats in tasks_of_group.aggregate(frac).items()}
            for frac in table.fractions
        }
        if absent := sorted({m for t in per_task for m in table.missing.get(t, ())}):
            missing[group] = tuple(absent)
    return RankTable(fractions=table.fractions, per_task=per_group, missing=missing)


def rank_table(run_set: RunSet) -> RankTable:
    """Median-seed normalized rank of each method per task and fraction."""
    per_task: dict[str, dict[float, dict[str, float]]] = {}
    missing: dict[str, tuple[str, ...]] = {}
    for task in run_set.tasks:
        scores = {}  # method -> median over its usable seeds of best-so-far at each fraction
        for m in run_set.methods:
            if curves := [r.best_at(len(BUDGET_GRID)) for r in run_set.runs(task, m) if r.usable]:
                scores[m] = np.median(curves, axis=0).tolist()
        per_task[task] = {
            frac: normalized_rank({m: s[i] for m, s in scores.items()})
            if len(scores) >= 2
            else dict.fromkeys(scores, 0.5)
            for i, frac in enumerate(BUDGET_GRID)
        }
        if absent := tuple(m for m in run_set.methods if m not in scores):
            missing[task] = absent
    return RankTable(fractions=BUDGET_GRID, per_task=per_task, missing=missing)


def pairwise_rho_matrix(table: RankTable, fraction: float = 1.0) -> tuple[list[str], np.ndarray]:
    """Task-by-task Spearman rho of normalized ranks at one budget fraction.

    Normalized ranks reverse the order of the scores on every task, so rho
    on them is rho on the scores.
    """
    tasks = sorted(table.per_task)
    return tasks, rho_matrix([table.per_task[t][fraction] for t in tasks])


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
        aggregates = [table.aggregate(frac) for frac in table.fractions]
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
            curves = [r.best_at(points) for r in runs if r.usable]
            rows = []
            if curves:
                # One (points x runs) quantile call; each row is the same
                # linear interpolation `median_iqr` computes per point.
                q25, med, q75 = np.quantile(np.array(curves).T, [0.25, 0.5, 0.75], axis=1, method="linear")
                rows = zip(fractions, med.tolist(), q25.tolist(), q75.tolist())
            path = os.path.join(out_dir, f"convergence_{task}_{method}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["fraction", "median", "q25", "q75"])
                for row in rows:
                    writer.writerow([f"{row[0]:.6f}"] + [repr(v) for v in row[1:]])
            written.append(path)
    return written
