"""Rank statistics, correlations, and run-directory ingestion."""
import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aerobench import analytics
from aerobench.analytics import (
    RESULTS_HEADER,
    AnalyticsError,
    RankTable,
    RunRecord,
    RunSet,
    best_so_far_at,
    group_rank_table,
    load_run_set,
    mean_rho,
    median_iqr,
    normalized_rank,
    pairwise_rho_matrix,
    rank_table,
    read_run_dir,
    rho_matrix,
    spearman_rho,
    write_convergence_data,
    write_run_dir,
    write_rank_table_csv,
    write_rho_matrix_csv,
)
from aerobench.cli import main
from aerobench.optimizers import OptimizerConfig, method_names, run_with_budget
from aerobench.problems import EvaluationError, get_environment

TOL = 1e-12


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman_rho([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == pytest.approx(
            1.0, abs=TOL
        )

    def test_reversed_rankings(self):
        assert spearman_rho([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == pytest.approx(
            -1.0, abs=TOL
        )

    def test_known_point_eight(self):
        # Sum of squared rank differences is 4 over n=5:
        # rho = 1 - 6*4 / (5*(25-1)) = 0.8
        assert spearman_rho([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]) == pytest.approx(
            0.8, abs=TOL
        )

    def test_monotone_transform_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        for _ in range(50):
            a = rng.random(8)
            b = rng.random(8)
            base = spearman_rho(a, b)
            assert spearman_rho(np.exp(5 * a), b) == pytest.approx(base, abs=TOL)
            assert spearman_rho(a, 3 * b - 7) == pytest.approx(base, abs=TOL)

    def test_too_few_methods(self):
        with pytest.raises(AnalyticsError):
            spearman_rho([1, 2], [2, 1])

    def test_length_mismatch(self):
        with pytest.raises(AnalyticsError):
            spearman_rho([1, 2, 3], [1, 2])

    def test_degenerate_ranking(self):
        with pytest.raises(AnalyticsError):
            spearman_rho([1, 1, 1], [1, 2, 3])


class TestNormalizedRank:
    def test_three_distinct_scores(self):
        ranks = normalized_rank({"a": 3.0, "b": 1.0, "c": 2.0}, sense="maximize")
        assert ranks == {"a": 0.0, "b": 1.0, "c": 0.5}

    def test_sense_flips_order(self):
        ranks = normalized_rank({"a": 3.0, "b": 1.0, "c": 2.0}, sense="minimize")
        assert ranks == {"a": 1.0, "b": 0.0, "c": 0.5}

    def test_tie_at_best_shares_average_rank(self):
        ranks = normalized_rank(
            {"a": 5.0, "b": 5.0, "c": 1.0}, sense="maximize"
        )
        # Tied best pair takes average rank 1.5 of ranks {1, 2}; worst is 3.
        assert ranks["a"] == ranks["b"] == pytest.approx(0.0, abs=TOL)
        assert ranks["c"] == pytest.approx(1.0, abs=TOL)

    def test_all_equal_is_half(self):
        ranks = normalized_rank({"a": 2.0, "b": 2.0, "c": 2.0})
        assert ranks == {"a": 0.5, "b": 0.5, "c": 0.5}

    def test_single_method_rejected(self):
        with pytest.raises(AnalyticsError):
            normalized_rank({"a": 1.0})

    @given(
        st.lists(
            st.integers(min_value=-100, max_value=100),
            min_size=3,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_transform_invariance(self, scores):
        values = {f"m{i}": v for i, v in enumerate(scores)}
        base = normalized_rank(values, sense="maximize")
        # exp is strictly increasing, so ranks cannot move.
        mapped = normalized_rank(
            {k: float(np.exp(v / 50)) for k, v in values.items()}, sense="maximize"
        )
        for k in values:
            assert mapped[k] == pytest.approx(base[k], abs=TOL)


class TestMeanPairwiseSpearman:
    def test_identical_rankings_give_one(self):
        r = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        assert mean_rho(rho_matrix([r, dict(r), dict(r)]))[0] == pytest.approx(1.0)

    def test_pair_with_few_shared_methods_excluded(self):
        r1 = {"a": 1.0, "b": 2.0, "c": 3.0}
        r2 = {"a": 1.0, "b": 2.0, "c": 3.0}
        r3 = {"a": 1.0, "x": 2.0, "y": 3.0}  # only 1 shared with r1/r2
        assert mean_rho(rho_matrix([r1, r2, r3]))[0] == pytest.approx(1.0)

    def test_no_usable_pairs_give_nan_and_zero(self):
        rho, pairs = mean_rho(rho_matrix([{"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 1.0}]))
        assert math.isnan(rho) and pairs == 0

    def test_near_zero_for_independent_rankings(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        methods = [f"m{i}" for i in range(10)]
        rankings = [
            {m: float(v) for m, v in zip(methods, rng.permutation(10))}
            for _ in range(40)
        ]
        assert abs(mean_rho(rho_matrix(rankings))[0]) < 0.15


class TestMedianIqr:
    def test_one_to_five(self):
        assert median_iqr([1, 2, 3, 4, 5]) == (3.0, 2.0, 4.0)

    def test_single_value(self):
        assert median_iqr([7.0]) == (7.0, 7.0, 7.0)

    def test_linear_interpolation(self):
        med, q25, q75 = median_iqr([0.0, 1.0])
        assert (med, q25, q75) == (0.5, 0.25, 0.75)

    def test_empty_rejected(self):
        with pytest.raises(AnalyticsError):
            median_iqr([])


class TestBestSoFar:
    def test_prefix_max(self):
        assert best_so_far_at((1.0, 3.0, 2.0), budget=3, fraction=2 / 3) == 3.0

    def test_full_fraction(self):
        assert best_so_far_at((1.0, 3.0, 2.0), budget=3, fraction=1.0) == 3.0

    def test_ceil_of_fractional_prefix(self):
        # ceil(0.4 * 3) = 2 evaluations considered.
        assert best_so_far_at((1.0, 5.0, 9.0), budget=3, fraction=0.4) == 5.0

    def test_early_stop_extends_last_best(self):
        # Trajectory used 2 of 10 evaluations; later fractions still answer.
        assert best_so_far_at((4.0, 2.0), budget=10, fraction=1.0) == 4.0

    def test_error_rows_skipped(self):
        assert best_so_far_at((None, 2.0, None, 5.0), budget=4, fraction=1.0) == 5.0

    def test_all_error_prefix_falls_forward(self):
        assert best_so_far_at((None, None, 7.0), budget=3, fraction=1 / 3) == 7.0

    def test_all_error_trajectory_raises(self):
        with pytest.raises(AnalyticsError):
            best_so_far_at((None, None), budget=2, fraction=1.0)

    def test_nondecreasing_in_fraction(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        rewards = tuple(rng.normal(size=40))
        vals = [
            best_so_far_at(rewards, budget=40, fraction=f)
            for f in np.linspace(0.05, 1.0, 20)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_bad_fraction(self):
        with pytest.raises(AnalyticsError):
            best_so_far_at((1.0,), budget=1, fraction=0.0)


def _write_run_dir(root, task, method, seed, rewards, budget=None, sense="maximize", **recorded):
    d = os.path.join(root, task, method, f"seed{seed}")
    os.makedirs(d)
    config = {
        "task": task,
        "method": method,
        "seed": seed,
        "budget": budget or len(rewards),
        "sense": sense,
        **recorded,
    }
    with open(os.path.join(d, "resolved_config.json"), "w") as fh:
        json.dump(config, fh)
    best = None
    with open(os.path.join(d, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for i, r in enumerate(rewards):
            if r is not None:
                best = r if best is None else max(best, r)
            writer.writerow(
                [i, f"d{i}", "" if r is None else repr(r), repr(best or 0.0), True, i + 1, 0]
            )
    return d


class _FailsTwo:
    """A task's evaluator, except that designs 1 and 31 of the run fail."""

    def __init__(self, inner):
        self.inner, self.designs = inner, 0

    def batch_metrics(self, points, ops):
        out = self.inner.batch_metrics(points, ops)
        for i in range(len(out)):
            if self.designs in (1, 31):
                out[i] = EvaluationError(f"design {self.designs} fails")
            self.designs += 1
        return out


class TestRunIngestion:
    def test_round_trip(self, tmp_path):
        d = _write_run_dir(str(tmp_path), "taskA", "pso", 3, (1.0, None, 2.5))
        rec = read_run_dir(d)
        assert rec.task == "taskA"
        assert rec.method == "pso"
        assert rec.seed == 3
        assert rec.rewards == (1.0, None, 2.5)

    def test_load_run_set_walks_layout(self, tmp_path):
        for task in ("t1", "t2"):
            for method in ("pso", "cmaes"):
                for seed in (0, 1):
                    _write_run_dir(
                        str(tmp_path), task, method, seed, (float(seed), 2.0)
                    )
        rs = load_run_set([str(tmp_path)])
        assert rs.tasks == ["t1", "t2"]
        assert rs.methods == ["cmaes", "pso"]
        assert len(rs.records) == 8
        assert len(rs.runs("t1", "pso")) == 2

    @pytest.mark.parametrize("method", method_names())
    def test_what_run_writes_compare_reads_bit_for_bit(self, tmp_path, method):
        # One warm-start design and two failed designs; pso's one sweep at
        # budget 34 leaves 13 rows to run_with_budget's uniform samples.
        env = get_environment("delta-ld-single")
        env = env.with_evaluator(_FailsTwo(env.evaluator))
        warm = env.space.sample_uniform(seed=5, n=1)
        trajectory = run_with_budget(env, OptimizerConfig(method=method, budget=34, seed=2), warm)
        assert len(trajectory) == 34 and sum(r.error is not None for r in trajectory.records) == 2
        write_run_dir(str(tmp_path), trajectory, env.sense)
        cell = tmp_path / "delta-ld-single" / method / "seed2"
        run = read_run_dir(str(cell))
        config = trajectory.resolved_config
        assert (run.task, run.method, run.seed, run.budget) == tuple(
            config[key] for key in ("task", "method", "seed", "budget")
        )
        written = [None if r.error else r.reward.hex() for r in trajectory.records]
        assert [None if r is None else r.hex() for r in run.rewards] == written
        with open(cell / "resolved_config.json") as fh:
            assert json.load(fh) == {**config, "sense": env.sense}

    def test_duplicate_runs_rejected(self):
        rec = RunRecord(task="t", method="m", seed=0, budget=2, rewards=(1.0, 2.0))
        with pytest.raises(AnalyticsError):
            RunSet(records=(rec, rec))

    def test_empty_root_raises(self, tmp_path):
        with pytest.raises(AnalyticsError):
            load_run_set([str(tmp_path)])

    @pytest.mark.parametrize("key, old, new", [("harness_version", "0.1.0", "0.3.0"), ("catalog_version", "2", "3")])
    def test_cells_of_different_versions_are_refused(self, tmp_path, capsys, key, old, new):
        root = str(tmp_path / "runs")
        cells = [_write_run_dir(root, "t", "pso", 0, (1.0, 2.0), **{key: old})]
        cells += [_write_run_dir(root, "t", method, 0, (1.0, 2.0), **{key: new}) for method in ("bo", "cmaes")]
        # A cell that records no version is compared with none.
        _write_run_dir(root, "t", "evolve", 0, (1.0, 2.0))
        with pytest.raises(AnalyticsError, match=f"disagree on {key}") as refused:
            load_run_set([root])
        assert sum(cell in str(refused.value) for cell in cells) == 2 and cells[0] in str(refused.value)
        assert main(["compare", root, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_cells_of_one_version_load_beside_cells_that_record_none(self, tmp_path):
        for method in ("pso", "cmaes"):
            _write_run_dir(str(tmp_path), "t", method, 0, (1.0,), catalog_version="3", harness_version="0.3.0")
        _write_run_dir(str(tmp_path), "t", "bo", 0, (1.0,))
        assert load_run_set([str(tmp_path)]).methods == ["bo", "cmaes", "pso"]

    def test_more_rows_than_the_budget_is_refused(self, tmp_path):
        # Ranked on its first two rows, this cell's best would read 1.0, not 9.0.
        d = _write_run_dir(str(tmp_path), "t", "pso", 0, (1.0, 1.0, 9.0, 9.0), budget=2)
        with pytest.raises(AnalyticsError) as refused:
            read_run_dir(d)
        assert str(refused.value) == f"{d}: results.csv holds 4 rows, more than its budget 2"
        # As many rows as the budget, or fewer, still read.
        assert read_run_dir(_write_run_dir(str(tmp_path), "t", "bo", 0, (1.0, 9.0), budget=2)).rewards == (1.0, 9.0)
        assert read_run_dir(_write_run_dir(str(tmp_path), "t", "cmaes", 0, (1.0,), budget=2)).rewards == (1.0,)

    def test_cell_copied_in_beside_a_grid_is_refused(self, tmp_path, capsys):
        grid = ["run", "--task", "delta-ld-single", "--seeds", "0", "--budget", "5"]
        runs, other = tmp_path / "runs", tmp_path / "other"
        assert main([*grid, "--method", "pso,evolve", "--out", str(runs)]) == 0
        assert main([*grid, "--method", "cmaes", "--out", str(other)]) == 0
        assert load_run_set([str(runs)]).methods == ["evolve", "pso"]
        copied = runs / "delta-ld-single" / "cmaes"
        shutil.copytree(other / "delta-ld-single" / "cmaes", copied)
        with pytest.raises(AnalyticsError) as refused:
            load_run_set([str(runs)])
        assert str(refused.value) == (
            f"{copied / 'seed0'}: {runs / 'manifest.json'} lists no run of task 'delta-ld-single', "
            "method 'cmaes', seed 0"
        )
        capsys.readouterr()
        assert main(["compare", str(runs), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        # Below the root, no manifest is read: a task's directory compares as a hand-built tree.
        assert load_run_set([str(runs / "delta-ld-single")]).methods == ["cmaes", "evolve", "pso"]

    @pytest.mark.parametrize(
        "text, problem",
        [
            (b"{", "is not valid JSON"),
            (b"\xff{}", "cannot be read"),
            (b"[]", "must list the grid's tasks, methods and seeds"),
            (b'{"tasks": ["t"], "methods": ["pso"]}', "must list the grid's tasks, methods and seeds"),
            (b'{"tasks": ["t"], "methods": "pso", "seeds": [0]}', "must list the grid's tasks, methods and seeds"),
        ],
    )
    def test_manifest_without_a_grid_is_refused(self, tmp_path, text, problem):
        _write_run_dir(str(tmp_path), "t", "pso", 0, (1.0,))
        (tmp_path / "manifest.json").write_bytes(text)
        with pytest.raises(AnalyticsError) as refused:
            load_run_set([str(tmp_path)])
        assert str(refused.value).startswith(f"{tmp_path / 'manifest.json'} {problem}")

    def test_cells_a_manifest_lists_load(self, tmp_path):
        for method in ("pso", "bo"):
            _write_run_dir(str(tmp_path), "t", method, 0, (1.0,))
        (tmp_path / "manifest.json").write_text('{"tasks": ["t", "u"], "methods": ["bo", "pso"], "seeds": [0, 1]}')
        assert load_run_set([str(tmp_path)]).methods == ["bo", "pso"]


def _csv_reader_rewards(path):
    """The `csv.reader` loop `read_run_dir` read rewards with before it split lines itself."""
    rewards = []
    with open(os.path.join(path, "results.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, ["reward"])  # an empty file holds no rows
        if "reward" not in header:
            raise AnalyticsError(f"{path}: results.csv has no reward column")
        col = header.index("reward")
        for row in filter(None, reader):  # a blank line is skipped, as csv.DictReader does
            try:
                reward = float(row[col]) if row[col] not in ("", "None") else None
            except (IndexError, ValueError):
                reward = math.nan
            if reward != reward:
                raise AnalyticsError(f"{path}: results.csv line {reader.line_num}: reward is not a number")
            rewards.append(reward)
    return rewards


def _rewards_outcome(fn, path):
    """The rewards' exact bits, or the error message."""
    try:
        rewards = fn(path)
    except AnalyticsError as exc:
        return ("raises", str(exc))
    return ("rewards", [None if r is None else r.hex() for r in rewards])


# Any character but a quote, a comma or a line end; NUL, form feed and NEL stay inside a line.
_field = st.text(st.characters(blacklist_characters='",\r\n', max_codepoint=0x2030), max_size=6)
_reward_field = st.one_of(
    st.sampled_from(["", "None", "nan", "NaN", "-nan", "abc", "none", "1_0", " 2.5 ", "inf", "-0.0", "1e999"]),
    st.floats(allow_nan=False).map(repr),
    _field,
)


@st.composite
def _results_texts(draw):
    """An unquoted results.csv: its header, then rows and blank lines, each ended by LF, CRLF or a lone CR."""
    if draw(st.booleans()) and draw(st.booleans()):
        return draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    names = draw(st.lists(_field, min_size=1, max_size=5))
    if draw(st.integers(0, 9)):  # one in ten has no reward column
        names.insert(draw(st.integers(0, len(names))), "reward")
    col = names.index("reward") if "reward" in names else 0
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        width = draw(st.integers(max(0, col - 1), len(names) + 2))  # short rows and extra columns
        fields = draw(st.lists(_field, min_size=width, max_size=width))
        if col < width:
            fields[col] = draw(_reward_field)
        lines.append(",".join(fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


class TestResultsReader:
    @given(_results_texts())
    @example("")
    @example("iter,reward\r\n")
    @example("iter,reward")
    @example("\r\n0,1.5\r\n")
    @example("reward,x\r1.5\r\r\n\rnan\n")
    @example("a,reward\n0\n")
    @example("a,reward,b\n0,None,\n\n0,,1\n0,-0.0\r\n")
    @example("reward\n\x0c1.5\x85\n1\x002\n")
    @example("reward\n \n1\n")
    @example("a,reward\n\t\n")
    @settings(max_examples=400, deadline=None)
    def test_same_rewards_or_error_as_the_csv_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            d = _write_run_dir(tmp, "t", "pso", 0, (), budget=100)
            with open(os.path.join(d, "results.csv"), "w", newline="") as fh:
                fh.write(text)
            reference = _rewards_outcome(_csv_reader_rewards, d)
            assert _rewards_outcome(lambda path: read_run_dir(path).rewards, d) == reference

    def test_quoted_file_is_refused_with_its_line(self, tmp_path):
        # csv would read 2.5 on line 3; split on commas, the quoted design id would shift it.
        d = _write_run_dir(str(tmp_path), "t", "pso", 0, (1.0, 2.5))
        with open(os.path.join(d, "results.csv"), "w", newline="") as fh:
            fh.write('iter,design_id,reward\r\n0,d0,1.0\r\n1,"d,1",2.5\r\n')
        with pytest.raises(AnalyticsError) as refused:
            read_run_dir(d)
        assert str(refused.value) == f"{d}: results.csv line 3: holds a quote; write_run_dir writes no quotes"


class TestRankTable:
    def _run_set(self, tmp_path):
        # pso dominates on t1, cmaes on t2; evolve always worst.
        curves = {
            ("t1", "pso"): (1.0, 5.0, 9.0),
            ("t1", "cmaes"): (1.0, 2.0, 3.0),
            ("t1", "evolve"): (0.0, 0.1, 0.2),
            ("t2", "pso"): (1.0, 2.0, 3.0),
            ("t2", "cmaes"): (1.0, 5.0, 9.0),
            ("t2", "evolve"): (0.0, 0.1, 0.2),
        }
        for (task, method), rewards in curves.items():
            for seed in (0, 1):
                _write_run_dir(str(tmp_path), task, method, seed, rewards)
        return load_run_set([str(tmp_path)])

    def test_rank_table_ordering(self, tmp_path):
        table = rank_table(self._run_set(tmp_path))
        r1 = table.per_task["t1"][1.0]
        assert r1["pso"] == 0.0 and r1["evolve"] == 1.0 and r1["cmaes"] == 0.5
        r2 = table.per_task["t2"][1.0]
        assert r2["cmaes"] == 0.0 and r2["evolve"] == 1.0

    def test_aggregate_median(self, tmp_path):
        table = rank_table(self._run_set(tmp_path))
        agg = table.aggregate(1.0)
        # evolve is last everywhere; pso and cmaes split 0 and 0.5.
        assert agg["evolve"][0] == 1.0
        assert agg["pso"][0] == 0.25

    def test_csv_export(self, tmp_path):
        table = rank_table(self._run_set(tmp_path / "runs"))
        out = tmp_path / "rank_table.csv"
        write_rank_table_csv(table, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "20%", "40%", "60%", "80%", "100%"]
        assert [r[0] for r in rows[1:]] == ["cmaes", "evolve", "pso"]
        assert all(len(r) == 6 for r in rows)

    def test_rho_matrix_and_export(self, tmp_path):
        table = rank_table(self._run_set(tmp_path / "runs"))
        tasks, mat = pairwise_rho_matrix(table, fraction=1.0)
        assert tasks == ["t1", "t2"]
        assert mat[0, 0] == 1.0 and mat[1, 1] == 1.0
        # Rankings share "evolve last" but swap the top two: rho = 0.5.
        assert mat[0, 1] == pytest.approx(0.5)
        out = tmp_path / "rho.csv"
        write_rho_matrix_csv(tasks, mat, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["task", "t1", "t2"]
        assert rows[1][1] == "1.000000"

    def test_missing_method_tracked(self, tmp_path):
        _write_run_dir(str(tmp_path), "t1", "pso", 0, (1.0, 2.0))
        _write_run_dir(str(tmp_path), "t1", "cmaes", 0, (2.0, 3.0))
        _write_run_dir(str(tmp_path), "t2", "pso", 0, (1.0, 2.0))
        _write_run_dir(str(tmp_path), "t2", "cmaes", 0, (2.0, 3.0))
        _write_run_dir(str(tmp_path), "t2", "evolve", 0, (0.0, 1.0))
        table = rank_table(load_run_set([str(tmp_path)]))
        assert table.missing.get("t1") == ("evolve",)
        assert "t2" not in table.missing

    def test_task_ranking_under_two_methods_left_out_of_aggregate(self, tmp_path):
        self._run_set(tmp_path / "runs")
        for method in ("pso", "cmaes", "evolve"):
            for seed in (0, 1):
                _write_run_dir(str(tmp_path / "runs"), "t3", method, seed, (None, None, None))
                # t4 ranks pso alone.
                rewards = (1.0, 2.0, 3.0) if method == "pso" else (None,) * 3
                _write_run_dir(str(tmp_path / "runs"), "t4", method, seed, rewards)
        table = rank_table(load_run_set([str(tmp_path / "runs")]))
        assert table.missing["t3"] == ("cmaes", "evolve", "pso")
        assert table.aggregate(1.0) == rank_table(self._run_set(tmp_path / "healthy")).aggregate(1.0)
        grouped = group_rank_table(table, lambda task: "all")
        assert grouped.per_task["all"][1.0] == {m: stats[0] for m, stats in table.aggregate(1.0).items()}
        stdout, files = _compare(tmp_path / "runs", "task", tmp_path / "out")
        rows = list(csv.reader(io.StringIO(files["rank_table.csv"].decode())))
        assert [row[0] for row in rows[1:]] == ["cmaes", "evolve", "pso"]
        assert rows[2][1:] == ["1.0000 [1.0000, 1.0000]"] * 5  # evolve last on t1 and t2
        assert rows[3][-1] == "0.2500 [0.1250, 0.3750]"
        assert "note: t3: no usable runs for cmaes, evolve, pso" in stdout

    def test_convergence_export(self, tmp_path):
        rs = self._run_set(tmp_path / "runs")
        written = write_convergence_data(rs, str(tmp_path / "conv"), points=10)
        assert len(written) == 6
        with open(written[0], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fraction", "median", "q25", "q75"]
        meds = [float(r[1]) for r in rows[1:]]
        assert all(a <= b for a, b in zip(meds, meds[1:]))


# ---------------------------------------------------------------------------
# Best-so-far curve against the prefix-max definition
# ---------------------------------------------------------------------------


def _prefix_max_reference(rewards, budget, fraction):
    """The prefix-max definition `best_so_far_at` had before it used a curve."""
    if not 0.0 < fraction <= 1.0:
        raise AnalyticsError("fraction must be in (0, 1]")
    if not rewards:
        raise AnalyticsError("empty trajectory")
    n = math.ceil(fraction * budget)
    prefix = [r for r in rewards[:n] if r is not None]
    if not prefix:
        finite = [r for r in rewards if r is not None]
        if not finite:
            raise AnalyticsError("trajectory contains no successful evaluations")
        return finite[0]
    return max(prefix)


def _outcome(fn, *args):
    """A comparable outcome: the exact bits of the value, or the error."""
    try:
        value = fn(*args)
    except AnalyticsError as exc:
        return ("raises", str(exc))
    return ("value", type(value), value.hex(), math.copysign(1.0, value))


_reward = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, math.nan]),
)
_fraction = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from([1e-300, 5e-324, 1.0 / 3.0, 1.0]),
)


class TestBestSoFarCurve:
    @given(
        st.lists(_reward, max_size=60),
        st.integers(min_value=0, max_value=90),
        st.one_of(_fraction, st.sampled_from([0.0, -0.5, 1.0000000000000002, 2.0, math.nan])),
    )
    @example([None, None, -0.0, 0.0], 4, 1.0)
    @example([0.0, -0.0], 2, 1.0)
    @example([-0.0, 0.0], 2, 1.0)
    @example([math.nan, 1.0, None], 3, 1.0)
    @example([1.0, math.nan, 2.0], 3, 0.5)
    @example([None, None], 2, 1.0)
    @example([], 5, 1.0)
    @example([], 5, 0.0)
    @settings(max_examples=600, deadline=None)
    def test_identical_to_prefix_max(self, rewards, budget, fraction):
        rewards = tuple(rewards)
        assert _outcome(best_so_far_at, rewards, budget, fraction) == _outcome(
            _prefix_max_reference, rewards, budget, fraction
        )

    @given(st.lists(_reward, min_size=1, max_size=40), st.integers(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_record_lookup_matches_function(self, rewards, budget):
        rec = RunRecord(task="t", method="m", seed=0, budget=budget, rewards=tuple(rewards))
        for fraction in (1e-9, 0.2, 0.5, 0.999, 1.0):
            assert _outcome(rec.best_so_far_at, fraction) == _outcome(
                _prefix_max_reference, rec.rewards, budget, fraction
            )

    def test_curve_computed_once_per_record(self, monkeypatch):
        calls = []
        original = analytics._running_best

        def counting(rewards):
            calls.append(1)
            return original(rewards)

        monkeypatch.setattr(analytics, "_running_best", counting)
        rec = RunRecord(task="t", method="m", seed=0, budget=4, rewards=(None, 2.0, 1.0, 3.0))
        assert [rec.best_so_far_at(f) for f in (0.25, 0.5, 0.75, 1.0)] == [2.0, 2.0, 2.0, 3.0]
        assert len(calls) == 1


def _reference_convergence_csv(runs, points):
    lines = ["fraction,median,q25,q75"]
    for i in range(points):
        frac = (i + 1) / points
        vals = []
        for r in runs:
            try:
                vals.append(_prefix_max_reference(r.rewards, r.budget, frac))
            except AnalyticsError:
                continue
        if not vals:
            continue
        med, q25, q75 = median_iqr(vals)
        lines.append(",".join([f"{frac:.6f}", repr(med), repr(q25), repr(q75)]))
    return "\r\n".join(lines) + "\r\n"


class TestConvergenceExport:
    @given(
        st.lists(
            st.tuples(st.lists(_reward, max_size=30), st.integers(min_value=1, max_value=40)),
            min_size=1,
            max_size=7,
        ),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_vectorized_quantiles_match_per_point_median_iqr(self, runs, points):
        records = tuple(
            RunRecord(task="t", method="m", seed=s, budget=budget, rewards=tuple(rewards))
            for s, (rewards, budget) in enumerate(runs)
        )
        with tempfile.TemporaryDirectory() as tmp:
            (path,) = write_convergence_data(RunSet(records=records), tmp, points=points)
            with open(path, newline="") as fh:
                text = fh.read()
        assert text == _reference_convergence_csv(records, points)


class TestRunSetIndex:
    def test_runs_in_record_order(self):
        records = tuple(
            RunRecord(task=t, method=m, seed=s, budget=1, rewards=(float(s),))
            for s in (2, 0, 1)
            for t in ("t2", "t1")
            for m in ("pso", "bo")
        )
        rs = RunSet(records=records)
        for t in ("t1", "t2"):
            for m in ("bo", "pso"):
                assert rs.runs(t, m) == [r for r in records if r.task == t and r.method == m]
        assert rs.runs("t1", "cmaes") == []
        assert rs.tasks == ["t1", "t2"] and rs.methods == ["bo", "pso"]
        rs.runs("t1", "bo").clear()
        assert len(rs.runs("t1", "bo")) == 3

    def test_read_run_dir_accepts_none_text_and_blank_lines(self, tmp_path):
        d = _write_run_dir(str(tmp_path), "t", "pso", 0, (1.0, None, 2.0))
        path = os.path.join(d, "results.csv")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(",,", ",None,") + "\n")
        assert read_run_dir(d).rewards == (1.0, None, 2.0)

    def test_read_run_dir_without_reward_column(self, tmp_path):
        d = _write_run_dir(str(tmp_path), "t", "pso", 0, (1.0,))
        with open(os.path.join(d, "results.csv"), "w") as fh:
            fh.write("iter,design_id\n0,d0\n")
        with pytest.raises(AnalyticsError, match="reward"):
            read_run_dir(d)

    def test_rank_csv_aggregates_once_per_fraction(self, tmp_path, monkeypatch):
        table = RankTable(
            fractions=(0.5, 1.0),
            per_task={
                "t1": {0.5: {"a": 0.0, "b": 1.0}, 1.0: {"a": 1.0, "b": 0.0}},
                "t2": {0.5: {"a": 0.0, "b": 1.0}, 1.0: {"a": 0.0, "b": 1.0}},
            },
        )
        calls = []
        original = RankTable.aggregate

        def counting(self, fraction):
            calls.append(fraction)
            return original(self, fraction)

        monkeypatch.setattr(RankTable, "aggregate", counting)
        out = tmp_path / "rank_table.csv"
        write_rank_table_csv(table, str(out))
        assert calls == [0.5, 1.0]
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["a", "0.0000 [0.0000, 0.0000]", "0.5000 [0.2500, 0.7500]"]


def _compare(root, group_by, out):
    """stdout of `aerobench compare` and the bytes of its rank and rho files."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["compare", str(root), "--group-by", group_by, "--out", str(out)]) == 0
    files = {}
    for name in ("rank_table.csv", "pairwise_rho.csv"):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return stdout.getvalue(), files


# Two or three tasks per environment prefix, so groups of several tasks occur.
_GROUPED_TASKS = ("delta-a", "delta-b", "delta-c", "cca-a", "cca-b")
_GROUPED_METHODS = ("m0", "m1", "m2", "m3")


@st.composite
def _run_trees(draw):
    """(task, method, seed) -> rewards, and a strictly increasing map per task.

    Every run has a successful evaluation and there are 1 or 3 seeds, so each
    median over seeds is one of the seeds' scores and keeps their order under
    any increasing map.
    """
    rewards = st.lists(st.one_of(st.none(), st.integers(-6, 6).map(float)), min_size=1, max_size=5)
    tree = {}
    tasks = draw(st.lists(st.sampled_from(_GROUPED_TASKS), min_size=2, max_size=5, unique=True))
    for task in tasks:
        for method in draw(st.lists(st.sampled_from(_GROUPED_METHODS), min_size=1, max_size=4, unique=True)):
            for seed in range(draw(st.sampled_from((1, 3)))):
                tree[(task, method, seed)] = draw(rewards.filter(lambda rs: any(r is not None for r in rs)))
    maps = {task: draw(st.one_of(st.integers(-4, 4), st.just("rank"))) for task in tasks}
    return tree, maps


def _apply_maps(tree, maps):
    """Scale each task's rewards by 2**k, or replace them by their rank among
    the task's distinct rewards; both are exact in floats."""
    out = {}
    for task, how in maps.items():
        runs = {key: rs for key, rs in tree.items() if key[0] == task}
        distinct = sorted({r for rs in runs.values() for r in rs if r is not None})
        for key, rs in runs.items():
            out[key] = [
                None if r is None
                else float(distinct.index(r) + 1) if how == "rank"
                else r * 2.0**how
                for r in rs
            ]
    return out


class TestCompareGrouping:
    @given(_run_trees())
    @settings(max_examples=40, deadline=None)
    def test_outputs_invariant_under_per_task_increasing_maps(self, drawn):
        tree, maps = drawn
        with tempfile.TemporaryDirectory() as tmp:
            for name, runs in (("raw", tree), ("mapped", _apply_maps(tree, maps))):
                for (task, method, seed), rewards in runs.items():
                    _write_run_dir(os.path.join(tmp, name), task, method, seed, rewards, budget=5)
            for group_by in ("task", "environment"):
                _, raw = _compare(os.path.join(tmp, "raw"), group_by, os.path.join(tmp, "o1"))
                _, mapped = _compare(os.path.join(tmp, "mapped"), group_by, os.path.join(tmp, "o2"))
                assert mapped == raw, group_by

    def test_environment_rank_is_median_of_task_ranks_across_scales(self, tmp_path):
        # delta-a ranks m0 > m1 > m2 > m3; delta-b ranks m1 > m0 > m3 > m2 on
        # a scale 10^3 larger. Pooling raw rewards would let delta-b decide.
        scores = {
            "delta-a": {"m0": 4.0, "m1": 3.0, "m2": 2.0, "m3": 1.0},
            "delta-b": {"m0": 3000.0, "m1": 4000.0, "m2": 1000.0, "m3": 2000.0},
        }
        for task, by_method in scores.items():
            for method, score in by_method.items():
                for seed in (0, 1, 2):
                    _write_run_dir(str(tmp_path / "runs"), task, method, seed, (score - seed,))
        table = rank_table(load_run_set([str(tmp_path / "runs")]))
        stdout, files = _compare(tmp_path / "runs", "environment", tmp_path / "out")
        rows = list(csv.reader(io.StringIO(files["rank_table.csv"].decode())))
        expected = {"m0": 1 / 6, "m1": 1 / 6, "m2": 5 / 6, "m3": 5 / 6}
        for method, *cells in rows[1:]:
            ranks = [table.per_task[task][1.0][method] for task in scores]
            assert median_iqr(ranks)[0] == pytest.approx(expected[method], abs=TOL)
            med = f"{expected[method]:.4f}"
            assert cells == [f"{med} [{med}, {med}]"] * 5
        assert [row[0] for row in rows[1:]] == ["m0", "m1", "m2", "m3"]
        assert "N/A (no two rankings" in stdout  # one group, so no pair

    def test_group_entry_needs_every_task_of_the_group(self):
        table = RankTable(
            fractions=(1.0,),
            per_task={
                "d-a": {1.0: {"x": 0.0, "y": 1.0, "z": 0.5}},
                "d-b": {1.0: {"x": 1.0, "y": 0.0}},
                "e-a": {1.0: {"x": 0.0, "z": 1.0}},
            },
            missing={"d-b": ("z",), "e-a": ("y",)},
        )
        grouped = group_rank_table(table, lambda task: task.split("-")[0])
        assert grouped.per_task == {"d": {1.0: {"x": 0.5, "y": 0.5}}, "e": {1.0: {"x": 0.0, "z": 1.0}}}
        assert grouped.missing == {"d": ("z",), "e": ("y",)}
        # Only x is ranked in both groups; y and z are N/A in the aggregate.
        assert grouped.aggregate(1.0) == {"x": (0.25, 0.125, 0.375)}

    def test_printed_mean_rho_is_the_mean_over_raw_score_rankings(self, tmp_path):
        rng = np.random.default_rng(5)
        methods = ("bo", "cmaes", "evolve", "lbfgsb", "pso")
        for t in range(4):
            for method in methods:
                for seed in range(3):
                    rewards = [float(v) * 10.0**t for v in rng.integers(0, 20, size=4)]
                    _write_run_dir(str(tmp_path / "runs"), f"task{t}", method, seed, rewards)
        run_set = load_run_set([str(tmp_path / "runs")])
        raw_scores = [
            {m: float(np.median([r.best_so_far_at(1.0) for r in run_set.runs(task, m)])) for m in methods}
            for task in run_set.tasks
        ]
        expected = mean_rho(rho_matrix(raw_scores))[0]
        _, mat = pairwise_rho_matrix(rank_table(run_set))
        rho, pairs = mean_rho(mat)
        assert rho.hex() == expected.hex()
        assert pairs == 6
        stdout, _ = _compare(tmp_path / "runs", "task", tmp_path / "out")
        assert f"mean pairwise Spearman rho at 100% budget: {expected:.6f} over {pairs} usable pairs" in stdout

    def test_no_usable_pair_is_reported_not_raised(self, tmp_path):
        for task in ("t1", "t2"):
            for method, score in (("pso", 1.0), ("cmaes", 2.0)):
                _write_run_dir(str(tmp_path / "runs"), task, method, 0, (score,))
        stdout, _ = _compare(tmp_path / "runs", "task", tmp_path / "out")
        assert "mean pairwise Spearman rho at 100% budget: N/A" in stdout
