"""Catalog environments: evaluation, penalties, constraints, overrides."""
import importlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerobench.optimizers import BudgetedObjective, OptimizerConfig, method_names, run_with_budget
from aerobench.problems import (
    EvaluationError,
    MAXIMIZE,
    MINIMIZE,
    catalog_json,
    function_environment,
    get_environment,
    task_ids,
    write_catalog,
)
from aerobench.problems import geometry
from aerobench.problems.catalog import (
    BWB_ALPHA_RANGE,
    RANGE_ALPHA_RANGE,
    _airfoil_geometry_metrics,
    _airfoil_space,
    overridden_spaces,
)
from aerobench.space import DesignPoint, ParamSpace, SpaceError, continuous_space

ALL_TASKS = task_ids()


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_evaluation_is_deterministic(task_id):
    env = get_environment(task_id)
    try:
        point = env.space.sample_uniform(seed=11, n=1)[0]
        a = env.evaluate(point)
        b = env.evaluate(point)
        assert a.reward == b.reward
        assert a.metrics == b.metrics
        assert a.violations == b.violations
    finally:
        env.close()


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_rewards_finite_and_violations_bounded(task_id):
    env = get_environment(task_id)
    try:
        for point in env.space.sample_uniform(seed=3, n=20):
            result = env.evaluate(point)
            assert result.error is None
            assert np.isfinite(result.reward)
            for name, v in result.violations.items():
                assert 0.0 <= v <= 1.0, (name, v)
            assert result.feasible == (sum(result.violations.values()) == 0.0)
    finally:
        env.close()


def test_task_catalog_contents():
    assert len(ALL_TASKS) == 12
    assert "airfoil-ld-single" in ALL_TASKS
    assert "ceras-fuel-mixed" in ALL_TASKS


def test_unknown_task_rejected():
    with pytest.raises(KeyError):
        get_environment("not-a-task")


def test_penalty_dominates_airfoil_objective():
    """One full violation outweighs the maximum attainable raw objective."""
    env = get_environment("airfoil-ld-single")
    try:
        assert env.penalty_weight == 500.0
        # Raw L/D is bounded by CL_hi / CD_lo, which the penalty exceeds.
        assert env.penalty_weight > 1.8 / 0.006 * 0.9
    finally:
        env.close()


def test_minimize_tasks_negate_reward():
    env = get_environment("car-drag-single")
    try:
        point = env.space.sample_uniform(seed=5, n=1)[0]
        result = env.evaluate(point)
        assert env.sense == MINIMIZE
        # Reward is the negated objective for minimization tasks.
        assert result.reward == pytest.approx(-result.metrics["objective"])
    finally:
        env.close()


@pytest.mark.parametrize("task_id", ["ceras-fuel-mixed", "airfoil-drag-multipoint", "airfoil-ld-single"])
def test_reward_sign_and_penalty_bits(task_id):
    # The reward is the maximization-sense objective minus the penalty,
    # bit for bit: -(objective + lam * sum v) on a minimize task, objective
    # - lam * sum v on a maximize one. The sum runs left to right from 0.0.
    env = get_environment(task_id)
    results = env.evaluate_batch(env.space.sample_uniform(seed=7, n=40))
    binding = 0
    for result in results:
        total = 0.0
        for v in result.violations.values():
            total += v
        binding += total > 0.0
        raw, penalty = result.metrics["objective"], env.penalty_weight * total
        expected = -(raw + penalty) if env.sense == MINIMIZE else raw - penalty
        assert result.reward.hex() == expected.hex()
    assert binding > 0


def test_ceras_static_margin_window():
    env = get_environment("ceras-fuel-mixed")
    try:
        names = {c.name for c in env.constraints}
        assert names == {"static_margin_low", "static_margin_high"}
        assert env.penalty_weight == 20000.0
        results = [env.evaluate(p) for p in env.space.sample_uniform(seed=2, n=30)]
        # The margin window must actually bind for some sampled designs.
        assert any(sum(r.violations.values()) > 0 for r in results)
        for r in results:
            sm = r.metrics["StaticMargin"]
            low = r.violations["static_margin_low"]
            high = r.violations["static_margin_high"]
            if 0.05 <= sm <= 0.1:
                assert low == 0.0 and high == 0.0
    finally:
        env.close()


def test_multipoint_tasks_charge_one_budget_unit():
    """A six-point evaluation is still one evaluate() call with 6 rows."""
    env = get_environment("airfoil-drag-multipoint")
    try:
        point = env.space.sample_uniform(seed=1, n=1)[0]
        result = env.evaluate(point)
        assert len(result.per_point) == 6
    finally:
        env.close()


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(ParamSpace, name)

    def counting(space, *args):
        calls.append(args)
        return original(space, *args)

    monkeypatch.setattr(ParamSpace, name, counting)
    return calls


def test_one_validation_per_evaluation(monkeypatch):
    # A decoded row is valid by construction and is never validated (the
    # decode property test in test_decode.py proves it); a design from
    # outside the cube is validated once. The evaluator maps it without
    # re-checking.
    calls = _count_calls(monkeypatch, "validate")
    env = get_environment("airfoil-drag-multipoint")
    try:
        assert len(env.points) == 6
        obj = BudgetedObjective(env, budget=2)
        obj.evaluate_rows(np.full(env.space.relaxed_dim, 0.5)[None, :], 0)
        assert len(calls) == 0
        obj.evaluate_rows(np.full(env.space.relaxed_dim, 0.25)[None, :], 1)
        assert len(calls) == 0
        assert all(r.error is None for r in obj.records)
        assert env.evaluate(env.space.denormalize(np.full(env.space.relaxed_dim, 0.25))).error is None
        assert len(calls) == 1
    finally:
        env.close()


def test_decoded_evaluation_normalizes_once(monkeypatch):
    # Only the stand-in evaluator maps the design; the confidence proxy
    # reads the evaluator's own unit-cube vector.
    calls = _count_calls(monkeypatch, "normalize")
    env = get_environment("airfoil-drag-multipoint")
    obj = BudgetedObjective(env, budget=1)
    obj.evaluate_rows(np.full((1, env.space.relaxed_dim), 0.5), 0)
    assert obj.records[0].error is None
    assert len(calls) == 1


@pytest.mark.parametrize("value", ["abc", None, 10**400], ids=["text", "none", "huge-int"])
def test_evaluate_rejects_a_value_that_is_not_a_number(value):
    env = get_environment("delta-ld-single")
    with pytest.raises(SpaceError, match="sweep_angle: value"):
        env.evaluate(DesignPoint(values={"sweep_angle": value, "root_airfoil": "NACA2416"}))


def test_confidence_proxy_runs_only_where_a_constraint_reads_it(monkeypatch):
    # Tasks are built fresh so that each reads the counting proxy.
    from aerobench.problems import catalog

    rows = []
    proxy = catalog.confidence_proxy

    def counting(u):
        rows.append(np.array(u))
        return proxy(u)

    monkeypatch.setattr(catalog, "confidence_proxy", counting)
    expected = {"delta-ld-single": 0, "airfoil-ld-single": 1, "airfoil-drag-multipoint": 1}
    for task_id, per_eval in expected.items():
        env = catalog._BUILDERS[task_id]()
        point = env.space.sample_uniform(seed=4, n=1)[0]
        rows.clear()
        assert env.evaluate(point).error is None
        obj = BudgetedObjective(env, budget=1)
        obj.evaluate_rows(env.space.normalize(point)[None, :], 0)
        assert len(rows) == 2 * per_eval, task_id
        # The proxy reads the design's own unit-cube row.
        for row in rows:
            assert row.tolist() == env.space.normalize(point).tolist()


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_analytic_gradient_matches_fd(task_id):
    env = get_environment(task_id)
    try:
        if env.landscape_gradient is None:
            pytest.skip("no analytic landscape for this task")
        rng = np.random.Generator(np.random.Philox(key=99))
        dim = env.space.relaxed_dim
        eps = 1e-6
        for _ in range(10):
            u = 0.05 + 0.9 * rng.random(dim)
            grad = env.landscape_gradient(u)
            for i in rng.choice(dim, size=min(dim, 5), replace=False):
                up, um = u.copy(), u.copy()
                up[i] += eps
                um[i] -= eps
                fd = (env.landscape_value(up) - env.landscape_value(um)) / (2 * eps)
                assert grad[i] == pytest.approx(fd, abs=1e-5)
    finally:
        env.close()


def _landscape_and_objective(env, n=50):
    """(landscape at the evaluated u, evaluation) for n seeded designs."""
    rng = np.random.Generator(np.random.Philox(key=31))
    cases = []
    for _ in range(n):
        point = env.space.denormalize(rng.random(env.space.relaxed_dim))
        us = env.space.normalize(point)
        cases.append((env.landscape_value(us), env.evaluate(point)))
    return cases


@pytest.mark.parametrize("task_id", ALL_TASKS)
def test_landscape_is_the_evaluated_objective(task_id):
    env = get_environment(task_id)
    try:
        for value, result in _landscape_and_objective(env):
            assert value.hex() == result.metrics["objective"].hex()
    finally:
        env.close()


@pytest.mark.parametrize(
    "task_id, alpha_range",
    [
        ("bwb-drag-multipoint", BWB_ALPHA_RANGE),
        ("transonic-range-multipoint", RANGE_ALPHA_RANGE),
    ],
)
def test_trim_alpha_stays_in_window(task_id, alpha_range):
    # CL = at(u) + slope * alpha with at(u) inside the model's [lo, hi] band,
    # so every target's exact trim alpha lies in [(t_min - hi) / slope,
    # (t_max - lo) / slope] on every design, inside the task's window.
    env = get_environment(task_id)
    try:
        cl = env.evaluator.fields.models[0]  # each trim task lists its lift model first
        targets = [op.cl_target for op in env.points]
        lo = (min(targets) - cl.hi) / cl.alpha_slope
        hi = (max(targets) - cl.lo) / cl.alpha_slope
        assert alpha_range[0] < lo and hi < alpha_range[1]
        for _, result in _landscape_and_objective(env):
            for pp, target in zip(result.per_point, targets):
                assert lo <= pp["alpha_star"] <= hi
                assert pp["bracketed"] == 1.0
                assert pp["CL"] == pytest.approx(target, abs=1e-12)
    finally:
        env.close()


def _station_thickness(upper, lower, t_te, x):
    """Thickness at one station with one np.dot per surface, as before the matmul."""
    row = geometry.bernstein_row(x)
    c = np.sqrt(x) * (1.0 - x)
    return c * (float(np.dot(upper, row)) - float(np.dot(lower, row))) + x * t_te


def test_airfoil_thickness_matches_per_station_dot():
    grid = tuple(0.05 * i for i in range(1, 20))
    for point in _airfoil_space().sample_uniform(seed=12, n=500):
        upper, lower = geometry.surface_weights(point.values)
        t_te = float(point["t_te"])
        metrics = _airfoil_geometry_metrics(point)
        expected = {
            "t_033": _station_thickness(upper, lower, t_te, 0.33),
            "t_090": _station_thickness(upper, lower, t_te, 0.90),
            "t_min": min(_station_thickness(upper, lower, t_te, x) for x in grid),
        }
        for key, value in expected.items():
            assert float(metrics[key]).hex() == float(value).hex(), key


def test_describe_is_json_serializable():
    for task_id in ALL_TASKS:
        env = get_environment(task_id)
        try:
            entry = env.describe()
            json.dumps(entry)
            assert entry["id"] == task_id
            assert entry["relaxed_dim"] == env.space.relaxed_dim
        finally:
            env.close()


def test_catalog_json_round_trip(tmp_path):
    data = catalog_json()
    assert len(data["tasks"]) == 12
    path = tmp_path / "catalog.json"
    write_catalog(str(path))
    assert json.loads(path.read_text())["tasks"] == data["tasks"]


class TestCatalogOverride:
    def _override(self, mutate):
        """A parsed override of delta-ld-single's space, changed by `mutate`."""
        env = get_environment("delta-ld-single")
        space = json.loads(json.dumps(env.space.to_json()))
        env.close()
        mutate(space)
        return {"tasks": {"delta-ld-single": {"space": space}}}

    def _overridden(self, mutate):
        return get_environment("delta-ld-single").with_space(
            overridden_spaces(self._override(mutate))["delta-ld-single"]
        )

    def test_bounds_override_applied(self):
        def widen(space):
            for var in space["variables"]:
                if var["name"] == "sweep_angle":
                    var["lower"], var["upper"] = 50.0, 80.0

        env = self._overridden(widen)
        try:
            var = env.space.var("sweep_angle")
            assert (var.lower, var.upper) == (50.0, 80.0)
            # The override space is built fresh, so it carries its own layout.
            assert env.space._names == ("sweep_angle", "root_airfoil")
            assert env.space._name_set == frozenset(env.space._names)
            assert env.space.relaxed_dim == 6
        finally:
            env.close()

    def test_widened_bounds_evaluate_beyond_builder_bounds(self):
        # The stand-in keeps mapping with the builder's space, so a design
        # has the same metrics with or without the override, and one outside
        # the builder's bounds is evaluated instead of raising SpaceError.
        inside = DesignPoint(values={"sweep_angle": 60.0, "root_airfoil": "NACA2416"})
        env = get_environment("delta-ld-single")
        plain = env.evaluate(inside)

        def widen(space):
            for var in space["variables"]:
                if var["name"] == "sweep_angle":
                    var["lower"], var["upper"] = 50.0, 80.0

        env = self._overridden(widen)
        assert env.evaluate(inside).reward == plain.reward
        beyond = env.evaluate(DesignPoint(values={"sweep_angle": 78.0, "root_airfoil": "NACA2416"}))
        assert beyond.error is None and np.isfinite(beyond.reward)

    def test_name_mismatch_rejected(self):
        def rename(space):
            space["variables"][0]["name"] = "renamed"

        with pytest.raises(ValueError):
            overridden_spaces(self._override(rename))

    def test_kind_mismatch_rejected(self):
        def requantize(space):
            for var in space["variables"]:
                if var["kind"] == "continuous":
                    var.pop("lower")
                    var.pop("upper")
                    var["kind"] = "discrete"
                    var["levels"] = [1, 2]
                    break

        with pytest.raises(ValueError):
            overridden_spaces(self._override(requantize))

    def test_list_of_entries_and_a_task_the_file_does_not_name(self):
        # The catalog export's shape: a list of entries, each with its "id".
        space = get_environment("delta-ld-single").space.to_json()
        space["variables"][0]["upper"] = 80.0
        spaces = overridden_spaces({"tasks": [{"id": "delta-ld-single", "space": space}]})
        assert list(spaces) == ["delta-ld-single"]
        env = get_environment("delta-ld-single").with_space(spaces["delta-ld-single"])
        assert env.space.var("sweep_angle").upper == 80.0
        built = get_environment("car-drag-single")
        assert built.with_space(spaces.get("car-drag-single")) is built

    def test_level_the_task_does_not_have_rejected(self):
        # The stand-in maps a design by the task's own levels, so 60.0 could
        # not be evaluated; the override is refused before any run.
        space = json.loads(json.dumps(get_environment("delta-ld-robust").space.to_json()))
        space["variables"][0]["levels"] = [55.0, 60.0, 65.0, 70.0, 75.0]
        with pytest.raises(SpaceError, match="sweep_angle must keep its kind and use only"):
            overridden_spaces({"tasks": {"delta-ld-robust": {"space": space}}})


@pytest.mark.parametrize(
    "task_id, name, change",
    [
        ("car-drag-single", "car_size", {"lower": 0.5, "upper": 1.5}),
        ("delta-ld-single", "root_airfoil", {"levels": ["NACA0010", "NACA0016", "NACA0024"]}),
    ],
    ids=["widened-bound", "fewer-levels"],
)
def test_an_overridden_task_drops_the_landscape(task_id, name, change):
    # The landscape is a function of the builder's cube; under a new space it
    # would read another design's objective, or refuse a row of the new length.
    space = get_environment(task_id).space.to_json()
    for var in space["variables"]:
        if var["name"] == name:
            var.update(change)
    env = get_environment(task_id).with_space(overridden_spaces({"tasks": {task_id: {"space": space}}})[task_id])
    assert env.landscape_value is None and env.landscape_gradient is None
    assert env.evaluate(env.space.denormalize(np.full(env.space.relaxed_dim, 0.9))).error is None


@pytest.fixture(scope="module")
def widened_tasks():
    """Every task under an override that widens each continuous bound, unevenly."""
    tasks = {}
    for task_id in ALL_TASKS:
        space = get_environment(task_id).space.to_json()
        for var in space["variables"]:
            if var["kind"] == "continuous":
                width = var["upper"] - var["lower"]
                var["lower"], var["upper"] = var["lower"] - 0.5 * width, var["upper"] + 0.25 * width
        tasks[task_id] = {"space": space}
    spaces = overridden_spaces({"tasks": tasks})
    return {task_id: get_environment(task_id).with_space(spaces[task_id]) for task_id in ALL_TASKS}


@given(task_id=st.sampled_from(ALL_TASKS), data=st.data())
@settings(max_examples=120, deadline=None)
def test_an_override_never_changes_a_designs_reward(widened_tasks, task_id, data):
    # Designs inside the task's own bounds, its two corners among them, score
    # the same bits whatever space is searched.
    env, wide = get_environment(task_id), widened_tasks[task_id]
    dim = env.space.relaxed_dim
    coordinate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    drawn = data.draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), max_size=4))
    U = np.vstack([np.zeros((1, dim)), np.ones((1, dim)), *(np.array([row]) for row in drawn)])
    points = [env.space.denormalize(u) for u in U]
    for plain, widened in zip(env.evaluate_batch(points), wide.evaluate_batch(points)):
        assert plain.error is None and widened.error is None
        assert widened.reward.hex() == plain.reward.hex()
        assert widened.metrics == plain.metrics and widened.violations == plain.violations


class TestFunctionEnvironment:
    def test_wraps_scalar_function(self):
        space = continuous_space({"x": (-2.0, 2.0)})
        env = function_environment(space, lambda u: float(u[0] ** 2), MINIMIZE)
        result = env.evaluate(DesignPoint(values={"x": 1.0}))
        # x=1 -> u=0.75 -> value 0.5625, negated for minimization
        assert result.reward == pytest.approx(-0.5625)
        assert result.feasible

    def test_invalid_point_raises(self):
        space = continuous_space({"x": (-2.0, 2.0)})
        env = function_environment(space, lambda u: 0.0)
        with pytest.raises(SpaceError):
            env.evaluate(DesignPoint(values={"x": 5.0}))


class _BrokenEvaluator:
    def batch_metrics(self, points, ops):
        raise EvaluationError("synthetic failure")


def test_evaluator_failure_becomes_error_result():
    env = get_environment("delta-ld-single").with_evaluator(_BrokenEvaluator())
    point = env.space.sample_uniform(seed=1, n=1)[0]
    result = env.evaluate(point)
    assert result.error == "synthetic failure"
    assert result.reward is None
    assert not result.feasible


def test_an_attached_evaluator_drops_the_stand_ins_landscape():
    # The landscape is the stand-in's objective; another evaluator's answers need not follow it.
    base = get_environment("delta-ld-single")
    env = base.with_evaluator(_BrokenEvaluator())
    assert base.landscape_value is not None and base.landscape_gradient is not None
    assert env.landscape_value is None and env.landscape_gradient is None


class _NudgedBracketEvaluator:
    """Reports `bracketed` 2 ulp above 1.0 and CL off its target, as an external solver may."""

    def __init__(self, inner):
        self.inner = inner

    def batch_metrics(self, points, ops):
        out = self.inner.batch_metrics(points, ops)
        for per_point in out:
            for metrics in per_point:
                metrics["bracketed"] = np.nextafter(np.nextafter(metrics["bracketed"], 2.0), 2.0)
                metrics["CL"] += 0.05
        return out


def test_out_of_range_constraint_becomes_error_result():
    base = get_environment("bwb-drag-multipoint")
    env = base.with_evaluator(_NudgedBracketEvaluator(base.evaluator))
    result = env.evaluate(base.space.sample_uniform(seed=0, n=1)[0])
    assert result.error.startswith(
        "evaluator metrics unusable for bwb-drag-multipoint: constraint cl_reachable_p0"
    )
    assert result.reward is None
    assert not result.feasible


class _NoBracketEvaluator:
    """Omits `bracketed`, which only the cl_reachable constraints read."""

    def __init__(self, inner):
        self.inner = inner

    def batch_metrics(self, points, ops):
        out = self.inner.batch_metrics(points, ops)
        for per_point in out:
            for metrics in per_point:
                del metrics["bracketed"]
        return out


def test_metric_missing_for_constraint_becomes_error_row():
    base = get_environment("bwb-drag-multipoint")
    env = base.with_evaluator(_NoBracketEvaluator(base.evaluator))
    result = env.evaluate(base.space.sample_uniform(seed=0, n=1)[0])
    assert result.error == (
        "evaluator metrics unusable for bwb-drag-multipoint: "
        "constraint cl_reachable_p0: KeyError('bracketed')"
    )
    assert result.reward is None
    assert not result.feasible
    traj = run_with_budget(env, OptimizerConfig(method="pso", budget=5, seed=0))
    assert len(traj) == 5
    assert all(r.error == result.error and r.reward is None for r in traj.records)


class _SetMetricEvaluator:
    """Answers `key` with `value` at every operating point."""

    def __init__(self, inner, key, value):
        self.inner, self.key, self.value = inner, key, value

    def batch_metrics(self, points, ops):
        out = self.inner.batch_metrics(points, ops)
        for per_point in out:
            for metrics in per_point:
                metrics[self.key] = self.value
        return out


@pytest.mark.parametrize(
    "key, value, reason",
    [
        # Read by the aggregate.
        ("CD", "abc", "metric 'CD' is not a number: 'abc'"),
        # Read only by the nose-angle constraint.
        ("theta_le", np.array([180.0, 181.0]), "metric 'theta_le' is not a number: array([180., 181.])"),
    ],
    ids=["aggregate", "constraint"],
)
def test_non_numeric_metric_becomes_error_row(key, value, reason):
    base = get_environment("airfoil-drag-multipoint")
    env = base.with_evaluator(_SetMetricEvaluator(base.evaluator, key, value))
    traj = run_with_budget(env, OptimizerConfig(method="pso", budget=3, seed=0))
    assert len(traj) == 3
    prefix = "evaluator metrics unusable for airfoil-drag-multipoint: "
    assert [(r.reward, r.error) for r in traj.records] == [(None, prefix + reason)] * 3


class _Malformed:
    """The stand-in's answer, broken by `fault`; `expected` collects each design's error text."""

    def __init__(self, env, fault):
        self.inner, self.fault, self.expected = env.evaluator, fault, []
        self.prefix = f"evaluator metrics unusable for {env.id}: "
        if fault == "reply-ms-short":
            self.reply_ms = []

    def batch_metrics(self, points, ops):
        out, n = self.inner.batch_metrics(points, ops), len(points)
        errors = [None] * n
        if self.fault == "design-short":
            out.pop()
            errors = [f"{n - 1} answers and {n} wall times for {n} designs"] * n
        elif self.fault == "reply-ms-short":
            self.reply_ms = [1.0] * (n - 1)
            errors = [f"{n} answers and {n - 1} wall times for {n} designs"] * n
        elif self.fault == "point-short":
            out[0].pop()
            errors[0] = f"{len(ops) - 1} metric maps for {len(ops)} operating points"
        elif self.fault == "list-for-map":
            out[0][0] = list(out[0][0].values())
            errors[0] = "a list, not a metric map, at operating point 0"
        elif self.fault == "exception-entry":
            out[0] = RuntimeError("solver diverged")
            errors[0] = "a RuntimeError, not a list of metric maps"
        self.expected += [e and self.prefix + e for e in errors]
        return out


def _recording(run, sent):
    """The method's `run`, noting every reward the driver sends it."""

    def wrapped(*args):
        proposals = run(*args)
        try:
            batch = next(proposals)
            while True:
                rewards = yield batch
                sent.extend(rewards.tolist())
                batch = proposals.send(rewards)
        except StopIteration:
            return
        finally:
            proposals.close()

    return wrapped


@pytest.mark.parametrize(
    "fault", ["design-short", "point-short", "list-for-map", "exception-entry", "reply-ms-short"]
)
@pytest.mark.parametrize("method", method_names())
@pytest.mark.parametrize("task_id", ["delta-ld-single", "bwb-drag-multipoint"])
def test_malformed_answer_becomes_error_rows(task_id, method, fault, monkeypatch):
    # Every fault is an error row naming it: no crash, no lost record, no unset reward.
    sent = []
    module = importlib.import_module(f"aerobench.optimizers.{method}")
    monkeypatch.setattr(module, "run", _recording(module.run, sent))
    base = get_environment(task_id)
    evaluator = _Malformed(base, fault)
    traj = run_with_budget(base.with_evaluator(evaluator), OptimizerConfig(method=method, budget=25, seed=0))
    assert [r.error for r in traj.records] == evaluator.expected and len(traj) == 25
    assert any(evaluator.expected)
    # The method is sent -inf for each error row and the finite reward of each other row.
    assert sent == [-np.inf if r.error else r.reward for r in traj.records[: len(sent)]]
    assert all(np.isfinite(r) for r in sent if r != -np.inf)


def test_non_finite_reward_becomes_error_result():
    env = function_environment(continuous_space({"x": (0.0, 1.0)}), lambda u: np.inf)
    result = env.evaluate(DesignPoint(values={"x": 0.5}))
    assert result.error == "evaluator metrics unusable for function: non-finite reward -inf"
    assert result.reward is None
