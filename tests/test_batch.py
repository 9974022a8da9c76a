"""One batch in flight: `run_with_budget` hands each proposal batch to the environment.

`run_with_budget` evaluates each yielded batch, the warm-start designs and
the leftover budget as one `evaluate_decoded` call each, and records them in
row order, so every reward, design id and budget count is what one design
at a time gives. `ProblemEnvironment.evaluate(point)` is the one-design
batch, and an evaluator failure on any metric value becomes an error row.
"""
import types

import numpy as np
import pytest

from aerobench import optimizers
from aerobench.optimizers import BudgetedObjective, OptimizerConfig, run_with_budget
from aerobench.problems import EvaluationError, get_environment, task_ids
from aerobench.space import DesignPoint, ParamSpace, SpaceError

ALL_TASKS = task_ids()


class _Recording:
    """Stand-in evaluator proxy that keeps every batch it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def batch_metrics(self, points, ops):
        self.batches.append(list(points))
        return self.inner.batch_metrics(points, ops)


def _recorded_run(task_id, method, budget, seed=4, warmstart=()):
    base = get_environment(task_id)
    recording = _Recording(base.evaluator)
    env = base.with_evaluator(recording)
    traj = run_with_budget(env, OptimizerConfig(method=method, budget=budget, seed=seed), warmstart)
    return base, recording.batches, traj


@pytest.mark.parametrize("method", ["lbfgsb", "pso", "cmaes", "evolve"])
@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_batched_rewards_equal_per_design_evaluate(task_id, method):
    base, batches, traj = _recorded_run(task_id, method, budget=30)
    points = [p for batch in batches for p in batch]
    assert len(points) == len(traj.records) == 30
    for point, record in zip(points, traj.records):
        single = base.evaluate(point)
        assert single.error is None and record.error is None
        assert record.reward.hex() == single.reward.hex()
    if method != "evolve":
        # PSO's swarm, CMA's population and the FD stencil go as one batch.
        assert max(len(b) for b in batches) > 1


def test_budget_truncation_inside_a_batch_gives_exactly_budget_rows():
    base, batches, traj = _recorded_run("airfoil-drag-multipoint", "lbfgsb", budget=20)
    # One start point, then the FD stencil of 2 * dim rows cut to the 19 left.
    assert 2 * base.space.relaxed_dim > 19
    assert [len(b) for b in batches] == [1, 19]
    assert [r.design_id for r in traj.records] == [f"eval{i:06d}" for i in range(20)]
    rewards = [r.reward for r in traj.records]
    assert [r.best_so_far for r in traj.records] == [
        max(rewards[: i + 1]) for i in range(len(rewards))
    ]


def test_warm_start_is_one_batch_at_iteration_zero():
    env = get_environment("delta-ld-single")
    warm = env.space.sample_uniform(seed=6, n=3)
    _, batches, traj = _recorded_run("delta-ld-single", "evolve", budget=10, warmstart=warm)
    assert [p.values for p in batches[0]] == [env.space.clip(p).values for p in warm]
    assert [r.iteration for r in traj.records[:3]] == [0, 0, 0]
    assert len(traj.records) == 10


def test_warm_start_designs_are_normalized_once_and_not_validated(monkeypatch):
    # `clip` returns valid points; each warm row is computed once and goes
    # both to the evaluation and to the method. The stand-in evaluator
    # normalizes each of the 10 evaluated designs itself.
    calls = {"validate": 0, "normalize": 0}
    for name in calls:
        original = getattr(ParamSpace, name)

        def counting(space, point, name=name, original=original):
            calls[name] += 1
            return original(space, point)

        monkeypatch.setattr(ParamSpace, name, counting)
    env = get_environment("delta-ld-single")
    warm = env.space.sample_uniform(seed=6, n=3)
    traj = run_with_budget(env, OptimizerConfig(method="pso", budget=10, seed=4), warm)
    assert len(traj.records) == 10
    assert calls == {"validate": 0, "normalize": 13}


def test_leftover_budget_is_one_batch_of_the_sequential_draws(monkeypatch):
    # A method that proposes nothing leaves its whole budget to uniform
    # samples; one (n, dim) draw gives exactly the n single-row draws.
    def run(dim, rng, warm, budget, warn):
        return
        yield

    fake = types.SimpleNamespace(DEFAULTS={}, check=lambda space: None, run=run)
    monkeypatch.setitem(optimizers._METHODS, "pso", fake)
    base, batches, traj = _recorded_run("bwb-drag-multipoint", "pso", budget=7, seed=11)
    assert len(batches) == 1 and len(traj.records) == 7
    rng = base.space.rng(11)
    expected = [base.space.denormalize(rng.random(base.space.relaxed_dim)) for _ in range(7)]
    assert [p.values for p in batches[0]] == [p.values for p in expected]


def test_evaluate_batch_validates_every_point_before_evaluating():
    base = get_environment("delta-ld-single")
    recording = _Recording(base.evaluator)
    env = base.with_evaluator(recording)
    good = base.space.sample_uniform(seed=1, n=2)
    bad = DesignPoint(values={**good[0].values, "sweep_angle": 1e6})
    with pytest.raises(SpaceError):
        env.evaluate_batch([good[0], bad, good[1]])
    assert recording.batches == []


class _OneFails:
    """Answers every batch, but with an error for its second design."""

    def __init__(self, inner):
        self.inner = inner

    def batch_metrics(self, points, ops):
        out = self.inner.batch_metrics(points, ops)
        if len(out) > 1:
            out[1] = EvaluationError("design 1 diverged")
        return out


class _RaisesForTheBatch:
    """Raises instead of answering: every design of the batch has failed."""

    def batch_metrics(self, points, ops):
        raise EvaluationError("solver license expired")


def test_raised_evaluation_error_is_one_error_row_per_design():
    base = get_environment("airfoil-drag-multipoint")
    env = base.with_evaluator(_RaisesForTheBatch())
    obj = BudgetedObjective(env, budget=3)
    rewards = obj.evaluate_rows(np.random.default_rng(3).random((3, base.space.relaxed_dim)), 0)
    assert (rewards == -np.inf).all()
    assert [r.error for r in obj.records] == ["solver license expired"] * 3
    traj = run_with_budget(env, OptimizerConfig(method="pso", budget=25, seed=0))
    assert len(traj.records) == 25
    assert all(r.reward is None and r.error == "solver license expired" for r in traj.records)


def test_one_failed_design_is_one_error_row():
    base = get_environment("airfoil-drag-multipoint")
    env = base.with_evaluator(_OneFails(base.evaluator))
    U = np.random.default_rng(2).random((3, base.space.relaxed_dim))
    obj = BudgetedObjective(env, budget=3)
    rewards = obj.evaluate_rows(U, 0)
    assert rewards[1] == -np.inf and np.isfinite(rewards[[0, 2]]).all()
    assert [r.error for r in obj.records] == [None, "design 1 diverged", None]
    for i in (0, 2):
        single = base.evaluate(base.space.denormalize(U[i]))
        assert obj.records[i].reward.hex() == single.reward.hex()


class _ZeroMetrics:
    """A real reply with every float metric set to 0.0."""

    def __init__(self, inner):
        self.inner = inner

    def batch_metrics(self, points, ops):
        return [
            [{k: 0.0 if isinstance(v, float) else v for k, v in metrics.items()} for metrics in entry]
            for entry in self.inner.batch_metrics(points, ops)
        ]


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_zero_metrics_give_error_rows_not_crashes(task_id):
    base = get_environment(task_id)
    env = base.with_evaluator(_ZeroMetrics(base.evaluator))
    for point in base.space.sample_uniform(seed=3, n=4):
        result = env.evaluate(point)
        if result.error is None:
            assert np.isfinite(result.reward)
        else:
            assert result.reward is None
            assert result.error.startswith(f"evaluator metrics unusable for {task_id}")
    traj = run_with_budget(env, OptimizerConfig(method="pso", budget=25, seed=0))
    assert len(traj.records) == 25
