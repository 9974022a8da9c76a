"""Rank statistics, correlations, and run-directory ingestion."""
import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aerobench import analytics
from aerobench.analytics import (
    AnalyticsError,
    RankTable,
    RunRecord,
    RunSet,
    best_so_far_at,
    load_run_set,
    mean_pairwise_spearman,
    median_iqr,
    normalized_rank,
    pairwise_rho_matrix,
    rank_table,
    read_run_dir,
    spearman_rho,
    write_convergence_data,
    write_rank_table_csv,
    write_rho_matrix_csv,
)

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
        assert mean_pairwise_spearman([r, dict(r), dict(r)]) == pytest.approx(1.0)

    def test_pair_with_few_shared_methods_excluded(self):
        r1 = {"a": 1.0, "b": 2.0, "c": 3.0}
        r2 = {"a": 1.0, "b": 2.0, "c": 3.0}
        r3 = {"a": 1.0, "x": 2.0, "y": 3.0}  # only 1 shared with r1/r2
        assert mean_pairwise_spearman([r1, r2, r3]) == pytest.approx(1.0)

    def test_no_usable_pairs_raises(self):
        with pytest.raises(AnalyticsError):
            mean_pairwise_spearman([{"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 1.0}])

    def test_near_zero_for_independent_rankings(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        methods = [f"m{i}" for i in range(10)]
        rankings = [
            {m: float(v) for m, v in zip(methods, rng.permutation(10))}
            for _ in range(40)
        ]
        assert abs(mean_pairwise_spearman(rankings)) < 0.15


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


def _write_run_dir(root, task, method, seed, rewards, budget=None, sense="maximize"):
    d = os.path.join(root, task, method, f"seed{seed}")
    os.makedirs(d)
    config = {
        "task": task,
        "method": method,
        "seed": seed,
        "budget": budget or len(rewards),
        "sense": sense,
    }
    with open(os.path.join(d, "resolved_config.json"), "w") as fh:
        json.dump(config, fh)
    best = None
    with open(os.path.join(d, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iter", "design_id", "reward", "best_reward", "feasible", "n_evals", "wall_ms"]
        )
        for i, r in enumerate(rewards):
            if r is not None:
                best = r if best is None else max(best, r)
            writer.writerow(
                [i, f"d{i}", "" if r is None else repr(r), repr(best or 0.0), True, i + 1, 0]
            )
    return d


class TestRunIngestion:
    def test_round_trip(self, tmp_path):
        d = _write_run_dir(str(tmp_path), "taskA", "pso", 3, (1.0, None, 2.5))
        rec = read_run_dir(d)
        assert rec.task == "taskA"
        assert rec.method == "pso"
        assert rec.seed == 3
        assert rec.rewards == (1.0, None, 2.5)
        assert rec.sense == "maximize"

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

    def test_duplicate_runs_rejected(self):
        rec = RunRecord(task="t", method="m", seed=0, budget=2, rewards=(1.0, 2.0))
        with pytest.raises(AnalyticsError):
            RunSet(records=(rec, rec))

    def test_empty_root_raises(self, tmp_path):
        with pytest.raises(AnalyticsError):
            load_run_set([str(tmp_path)])


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
        rs = self._run_set(tmp_path / "runs")
        tasks, mat = pairwise_rho_matrix(rs, fraction=1.0)
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
