"""The stand-in design pass: one fused field evaluation per design, bit for bit.

`StandInEvaluator.batch_metrics` evaluates every metric model of a task once
per design with `FieldStack`; `point_metrics` computes only the models one
operating point reads. Both must give exactly the metrics the per-model
`MetricModel.at` path gives, and catalog tasks are built once per process
without the cached build ever changing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aerobench.landscape import BumpField, FieldStack
from aerobench.problems import EvaluationError, SubprocessEvaluator, get_environment, task_ids
from aerobench.problems.catalog import StandInEvaluator, confidence_proxy, overridden_spaces

ALL_TASKS = task_ids()

# Field evaluations one `point_metrics` call made before the design pass:
# the models the task reads at one operating point.
FIELD_EVALS_PER_POINT = {
    "airfoil-ld-single": 3,
    "airfoil-drag-multipoint": 3,
    "delta-ld-single": 2,
    "delta-ld-robust": 2,
    "delta-mo-trim": 3,
    "bwb-drag-multipoint": 3,
    "transonic-drag-single": 2,
    "transonic-range-multipoint": 2,
    "cca-ld-single": 2,
    "car-drag-single": 3,
    "ceras-fuel-mixed": 2,
    "sta-ld-mixed": 2,
}


def _unit_points(dim, key, n=20):
    """Seeded interior points, points on a cube face, and cube corners."""
    rng = np.random.Generator(np.random.Philox(key=key))
    points = [rng.random(dim) for _ in range(n)]
    for _ in range(n):
        u = rng.random(dim)
        u[rng.integers(dim)] = float(rng.integers(2))
        points.append(u)
    points += [np.zeros(dim), np.ones(dim)]
    points += [rng.integers(0, 2, dim).astype(float) for _ in range(n // 2)]
    return points


def _hex_metrics(metrics):
    return {key: float(v).hex() for key, v in metrics.items()}


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_fused_kernel_equals_each_model_bit_for_bit(task_id):
    env = get_environment(task_id)
    fields = env.evaluator.fields
    for u in _unit_points(env.space.relaxed_dim, key=17):
        fused = fields.at(u)
        assert [v.hex() for v in fused] == [m.at(u).hex() for m in fields.models]


def _numpy_scalar_at(model, u):
    """`MetricModel.at(u)` in the numpy-scalar arithmetic it once used."""
    x = model.field.value(u)
    s = 1.0 / (1.0 + np.exp(-x)) if x >= 0 else np.exp(x) / (1.0 + np.exp(x))
    return model.lo + (model.hi - model.lo) * s


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_metric_values_are_python_floats_with_the_numpy_bits(task_id):
    # Python floats keep the trim and every metric off numpy scalar
    # arithmetic, and every answered metric on `as_number`'s fast path;
    # the values must not move by a bit.
    env = get_environment(task_id)
    fields = env.evaluator.fields
    for u in _unit_points(env.space.relaxed_dim, key=31):
        fused = fields.at(u)
        single = [m.at(u) for m in fields.models]
        assert all(type(v) is float for v in fused + single)
        expected = [float(_numpy_scalar_at(m, u)).hex() for m in fields.models]
        assert [v.hex() for v in fused] == [v.hex() for v in single] == expected
        [design] = env.evaluator.batch_metrics([env.space.denormalize(u)], env.points)
        assert {key: type(v) for m in design for key, v in m.items() if type(v) is not float} == {}


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_design_pass_equals_point_metrics_bit_for_bit(task_id):
    env = get_environment(task_id)
    for u in _unit_points(env.space.relaxed_dim, key=23):
        point = env.space.denormalize(u)
        design = env.evaluator.batch_metrics([point], env.points)[0]
        single = [env.evaluator.point_metrics(point, op, k) for k, op in enumerate(env.points)]
        assert len(design) == len(env.points)
        for d, s in zip(design, single):
            assert d.keys() == s.keys()
            assert _hex_metrics(d) == _hex_metrics(s)


def _count_calls(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counting(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(owner, attr, counting)
    return calls


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_point_metrics_evaluates_only_the_fields_it_reads(task_id, monkeypatch):
    env = get_environment(task_id)
    point = env.space.sample_uniform(seed=2, n=1)[0]
    field_calls = _count_calls(monkeypatch, BumpField, "value")
    for k, op in enumerate(env.points):
        field_calls.clear()
        env.evaluator.point_metrics(point, op, k)
        assert len(field_calls) <= FIELD_EVALS_PER_POINT[task_id]


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_evaluate_makes_one_fused_pass_per_design(task_id, monkeypatch):
    env = get_environment(task_id)
    points = env.space.sample_uniform(seed=5, n=3)
    field_calls = _count_calls(monkeypatch, BumpField, "value")
    stack_calls = _count_calls(monkeypatch, FieldStack, "at")
    for point in points:
        assert env.evaluate(point).error is None
    assert len(stack_calls) == len(points)
    assert field_calls == []


@given(arrays(np.float64, st.integers(1, 40), elements=st.floats(0.0, 1.0)))
@settings(max_examples=300, deadline=None)
def test_confidence_proxy_is_the_mean_form_bit_for_bit(u):
    reference = 1.0 - 0.15 * float(np.mean((2.0 * u - 1.0) ** 2))
    assert confidence_proxy(u).hex() == reference.hex()


class _BrokenEvaluator:
    def batch_metrics(self, points, ops):
        raise EvaluationError("synthetic failure")

    def close(self):
        pass


class TestBuiltOncePerProcess:
    TASK = "bwb-drag-multipoint"

    def _rewards(self, env, points):
        return [env.evaluate(p).reward.hex() for p in points]

    def test_each_task_is_built_once(self):
        for task_id in ALL_TASKS:
            assert get_environment(task_id).evaluator is get_environment(task_id).evaluator

    def test_copies_never_change_the_next_call(self, tmp_path):
        base = get_environment(self.TASK)
        points = base.space.sample_uniform(seed=9, n=5)
        rewards = self._rewards(base, points)
        space_json = base.space.to_json()

        broken = base.with_evaluator(_BrokenEvaluator())
        assert broken.evaluate(points[0]).error == "synthetic failure"
        broken.close()
        base.close()
        external = get_environment(self.TASK).with_evaluator(
            SubprocessEvaluator([str(tmp_path / "no-such-solver")])
        )
        assert isinstance(external.evaluate(points[0]).error, str)
        external.close()

        override = dict(space_json)
        override["variables"] = [dict(v) for v in space_json["variables"]]
        override["variables"][0]["upper"] = 0.95
        spaces = overridden_spaces({"tasks": {self.TASK: {"space": override}}})
        assert get_environment(self.TASK).with_space(spaces[self.TASK]).space.variables[0].upper == 0.95

        again = get_environment(self.TASK)
        assert isinstance(again.evaluator, StandInEvaluator)
        assert again.space.to_json() == space_json
        assert self._rewards(again, points) == rewards


def test_missing_model_is_read_lazily_in_the_design_pass():
    # A model left out of the stack is still computed on first read, so a
    # builder that under-lists its models loses speed, not correctness.
    env = get_environment("delta-ld-single")
    stand_in = env.evaluator
    cl, cd = stand_in.fields.models
    partial = StandInEvaluator(env.space, stand_in._fn, (cl,))
    point = env.space.sample_uniform(seed=4, n=1)[0]
    full = stand_in.batch_metrics([point], env.points)[0]
    assert [_hex_metrics(m) for m in partial.batch_metrics([point], env.points)[0]] == [
        _hex_metrics(m) for m in full
    ]
