"""Budget accounting, method invariants, and per-method behavior."""
import copy
import json
import math
import re

import numpy as np
import pytest

from aerobench.optimizers import (
    ConfigurationError,
    OptimizerConfig,
    method_names,
    run_with_budget,
)
from aerobench.optimizers.base import fd_gradient
from scipy.stats import norm

from aerobench.optimizers import bo, cmaes, evolve, lbfgsb, pso
from aerobench.optimizers.bo import (
    DEFAULT_THETA,
    JITTER_MAX,
    JITTER_START,
    _GP,
    _chol,
    _sq_dists,
    log_expected_improvement,
)
from aerobench.optimizers.cmaes import strategy_params
from aerobench.optimizers.evolve import Archive, mutation_scale
from aerobench.optimizers.pso import pso_coefficients
from aerobench.problems import (
    MAXIMIZE,
    MINIMIZE,
    EvaluationError,
    function_environment,
    get_environment,
    task_ids,
)
from aerobench.space import (
    CATEGORICAL,
    DesignPoint,
    ParamSpace,
    VariableSpec,
    continuous_space,
)

METHODS = method_names()
MODULES = {"bo": bo, "cmaes": cmaes, "evolve": evolve, "lbfgsb": lbfgsb, "pso": pso}

# The range each fixed setting must lie in. A count is an int; any other
# setting is a finite float.
RULES = {
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    "in (0, 1)": lambda v: 0 < v < 1,
}
COUNT_RULES = {">= 1", ">= 2"}
SETTING_RULES = {
    "bo": {
        "n_initial": ">= 2",
        "n_candidates": ">= 1",
        "n_refine": ">= 1",
        "fit_starts": ">= 1",
        "fit_steps": ">= 1",
        "fit_lr": "> 0",
    },
    "cmaes": {"sigma0": "> 0"},
    "evolve": {
        "archive_capacity": ">= 1",
        "pw_alpha": "> 0",
        "batch_size": ">= 1",
        "gaussian_scale": ">= 0",
        "gaussian_final_scale": ">= 0",
    },
    "lbfgsb": {
        "memory": ">= 1",
        "maxiter": ">= 1",
        "restarts": ">= 1",
        "gtol": "> 0",
        "ftol": "> 0",
        "armijo_c": "in (0, 1)",
        "max_halvings": ">= 1",
        "fd_eps": "in (0, 1)",
    },
    "pso": {
        "swarm_size": ">= 2",
        "inertia_start": ">= 0",
        "inertia_end": ">= 0",
        "cognitive_start": ">= 0",
        "cognitive_end": ">= 0",
        "social_start": ">= 0",
        "social_end": ">= 0",
        "velocity_init_scale": ">= 0",
    },
}


def sphere_env(dim=4):
    space = continuous_space({f"x{i}": (0.0, 1.0) for i in range(dim)})
    return function_environment(
        space, lambda u: float(np.sum((u - 0.5) ** 2)), MINIMIZE, "sphere"
    )


class TestConfig:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(method="sgd", budget=10, seed=0)

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(method="pso", budget=0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_must_be_a_philox_key(self, seed):
        with pytest.raises(ConfigurationError, match="Philox key"):
            OptimizerConfig(method="pso", budget=10, seed=seed)
        assert OptimizerConfig(method="pso", budget=10, seed=2**128 - 1).seed == 2**128 - 1

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", True), ("seed", "1"), ("budget", 5.5), ("budget", True), ("budget", "5")],
    )
    def test_budget_and_seed_must_be_ints(self, field, value):
        # Philox truncates its key, so a float or bool seed would run another
        # seed's stream; a float budget cannot cut a batch.
        given = {"budget": 10, "seed": 0, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be an int, got {re.escape(repr(value))}"):
            OptimizerConfig(method="pso", **given)

    def test_options_are_not_a_setting(self):
        # Each method runs at its fixed DEFAULTS; there is no per-run override.
        with pytest.raises(TypeError, match="options"):
            OptimizerConfig(method="pso", budget=10, seed=0, options={"swarm_size": 30})

    def test_method_names(self):
        assert METHODS == ["bo", "cmaes", "evolve", "lbfgsb", "pso"]

    def test_every_fixed_setting_has_a_rule(self):
        assert {m: list(SETTING_RULES[m]) for m in METHODS} == {
            m: list(MODULES[m].DEFAULTS) for m in METHODS
        }

    @pytest.mark.parametrize(
        "method, name", [(m, n) for m in sorted(SETTING_RULES) for n in SETTING_RULES[m]]
    )
    def test_fixed_setting_has_its_type_and_range(self, method, name):
        # No run can override a setting, so an edit of DEFAULTS is the only way
        # to give one a value its code cannot use.
        rule, value = SETTING_RULES[method][name], MODULES[method].DEFAULTS[name]
        assert type(value) is (int if rule in COUNT_RULES else float)
        assert math.isfinite(value) and RULES[rule](value)


def fd_grad(f, x):
    """Drive the fd_gradient sub-generator with plain function values."""
    stencil = fd_gradient(np.asarray(x, dtype=float), 0)
    _, batch = next(stencil)
    try:
        stencil.send(np.array([f(u) for u in batch]))
    except StopIteration as done:
        return done.value
    raise AssertionError("fd_gradient asked for a second batch")


class TestFdGradient:
    def test_quadratic_example(self):
        grad = fd_grad(lambda x: float(np.sum(x**2)), np.array([0.3, 0.4]))
        assert grad == pytest.approx([0.6, 0.8], abs=1e-7)

    def test_constant_function(self):
        grad = fd_grad(lambda x: 1.0, np.array([0.5, 0.5, 0.5]))
        assert np.all(grad == 0.0)

    def test_costs_exactly_two_d_calls(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return float(x.sum())

        fd_grad(f, np.array([0.2, 0.8, 0.5]))
        assert len(calls) == 6

    def test_boundary_stencil_stays_in_cube(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return float(x[0])

        grad = fd_grad(f, np.array([0.0]))
        assert all(0.0 <= x[0] <= 1.0 for x in seen)
        assert grad[0] == pytest.approx(1.0)

    def test_non_finite_rejected(self):
        assert fd_grad(lambda x: float("nan"), np.array([0.5])) is None


class TestBudgetProtocol:
    @pytest.mark.parametrize("method", METHODS)
    def test_budget_exact_on_function_env(self, method):
        budget = 120
        traj = run_with_budget(
            sphere_env(), OptimizerConfig(method=method, budget=budget, seed=0)
        )
        assert len(traj) == budget

    @pytest.mark.parametrize("method", METHODS)
    def test_budget_one(self, method):
        traj = run_with_budget(
            sphere_env(), OptimizerConfig(method=method, budget=1, seed=0)
        )
        assert len(traj) == 1
        assert traj.records[0].best_so_far == traj.records[0].reward

    @pytest.mark.parametrize("method", METHODS)
    def test_best_so_far_nondecreasing(self, method):
        traj = run_with_budget(
            sphere_env(), OptimizerConfig(method=method, budget=80, seed=3)
        )
        bests = [r.best_so_far for r in traj.records if r.best_so_far is not None]
        assert all(a <= b for a, b in zip(bests, bests[1:]))

    @pytest.mark.parametrize("method", METHODS)
    def test_deterministic_given_seed(self, method):
        cfg = OptimizerConfig(method=method, budget=60, seed=7)
        a = run_with_budget(sphere_env(), cfg)
        b = run_with_budget(sphere_env(), cfg)
        assert [r.reward for r in a.records] == [r.reward for r in b.records]

    def test_warmstart_charged_and_plateaus(self):
        env = sphere_env()
        optimum = DesignPoint(values={f"x{i}": 0.5 for i in range(4)})
        traj = run_with_budget(
            env,
            OptimizerConfig(method="evolve", budget=50, seed=0),
            warmstart=[optimum],
        )
        assert len(traj) == 50
        # The optimum is evaluated first; best_so_far stays at it throughout.
        assert traj.records[0].reward == pytest.approx(0.0)
        for rec in traj.records:
            assert rec.best_so_far == pytest.approx(0.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_warm_start_that_spends_the_budget_starts_no_method_batch(self, method):
        # Warm-start designs that spend the budget leave the method nothing to propose.
        env = sphere_env()
        sizes = []
        inner = env.evaluator

        class Sizes:
            def batch_metrics(self, points, ops):
                sizes.append(len(points))
                return inner.batch_metrics(points, ops)

        warm = env.space.sample_uniform(seed=3, n=3)
        config = OptimizerConfig(method=method, budget=3, seed=0)
        traj = run_with_budget(env.with_evaluator(Sizes()), config, warmstart=warm)
        assert sizes == [3] and len(traj) == 3

    def test_resolved_config_snapshot(self):
        traj = run_with_budget(
            sphere_env(), OptimizerConfig(method="pso", budget=40, seed=5)
        )
        cfg = traj.resolved_config
        assert cfg["method"] == "pso"
        assert cfg["budget"] == 40
        assert cfg["seed"] == 5
        assert cfg["task"] == "sphere"
        assert cfg["options"]["swarm_size"] == 20
        assert "catalog_version" in cfg and "harness_version" in cfg

    @pytest.mark.parametrize("method", METHODS)
    def test_recorded_options_are_a_json_faithful_copy_of_the_defaults(self, method):
        defaults = MODULES[method].DEFAULTS
        before = dict(defaults)
        traj = run_with_budget(sphere_env(), OptimizerConfig(method=method, budget=5, seed=0))
        written = json.loads(json.dumps(traj.resolved_config))["options"]
        # Same keys in the same order, and a float stays a float.
        assert list(written.items()) == list(defaults.items())
        assert [type(v) for v in written.values()] == [type(v) for v in defaults.values()]
        traj.resolved_config["options"].clear()
        assert defaults == before


class TestLbfgsb:
    def test_categorical_only_space_rejected_before_eval(self):
        space = ParamSpace(
            variables=(
                VariableSpec(name="k", kind=CATEGORICAL, levels=("a", "b")),
            )
        )
        env = function_environment(space, lambda u: 0.0)
        with pytest.raises(ConfigurationError):
            run_with_budget(env, OptimizerConfig(method="lbfgsb", budget=10, seed=0))

    def test_categorical_only_space_refused_before_warm_start_is_evaluated(self):
        evaluated = []
        space = ParamSpace(variables=(VariableSpec(name="k", kind=CATEGORICAL, levels=("a", "b")),))
        env = function_environment(space, lambda u: evaluated.append(u) or 0.0)
        warm = [DesignPoint({"k": level}) for level in ("a", "b", "a")]
        with pytest.raises(ConfigurationError, match="purely categorical"):
            run_with_budget(env, OptimizerConfig(method="lbfgsb", budget=10, seed=0), warm)
        assert evaluated == []
        # The same warm start runs under a method that applies to the space.
        run_with_budget(env, OptimizerConfig(method="pso", budget=10, seed=0), warm)
        assert len(evaluated) == 10

    def test_a_refusal_names_the_task_and_the_method(self):
        space = ParamSpace(variables=(VariableSpec(name="k", kind=CATEGORICAL, levels=("a", "b")),))
        config = OptimizerConfig(method="lbfgsb", budget=10, seed=0)
        with pytest.raises(ConfigurationError, match="^words/lbfgsb: gradient-based search is undefined"):
            config.check(space, "words")

    def test_convex_quadratic_convergence(self):
        # Rotated convex quadratic with optimum off-center.
        rng = np.random.Generator(np.random.Philox(key=5))
        dim = 6
        a_mat = rng.random((dim, dim))
        h = a_mat @ a_mat.T + np.eye(dim)
        center = np.full(dim, 0.45)

        def quad(u):
            d = u - center
            return float(d @ h @ d)

        env = function_environment(
            continuous_space({f"x{i}": (0.0, 1.0) for i in range(dim)}), quad, MINIMIZE
        )
        traj = run_with_budget(env, OptimizerConfig(method="lbfgsb", budget=3000, seed=1))
        assert -traj.best_reward <= 1e-6

    def test_error_in_fd_stencil_abandons_restart(self):
        class FailsOnThirdCall:
            calls = 0

            def batch_metrics(self, points, ops):
                out = []
                for point in points:
                    self.calls += 1
                    if self.calls == 3:
                        out.append(EvaluationError("synthetic failure"))
                    else:
                        value = sum((v - 0.5) ** 2 for v in point.values.values())
                        out.append([{"value": value} for _ in ops])
                return out

        env = sphere_env().with_evaluator(FailsOnThirdCall())
        traj = run_with_budget(env, OptimizerConfig(method="lbfgsb", budget=50, seed=0))
        assert len(traj) == 50
        assert [r.error for r in traj.records if r.error] == ["synthetic failure"]
        assert traj.records[2].error == "synthetic failure"
        # Start point plus the 8-row stencil of restart 0, then restart 1.
        assert [r.iteration for r in traj.records[:10]] == [0] * 9 + [1]

    def test_restart_whose_start_point_errors_moves_on(self):
        evaluator = _SphereBatches(fail={0, 1})
        traj = run_with_budget(
            sphere_env().with_evaluator(evaluator), OptimizerConfig(method="lbfgsb", budget=40, seed=0)
        )
        assert len(traj) == 40
        assert [i for i, r in enumerate(traj.records) if r.error] == [0, 1]
        # Restarts 0 and 1 end at their failed start; restart 2 takes its 8-row stencil.
        assert [r.iteration for r in traj.records[:11]] == [0, 1] + [2] * 9


class TestPso:
    def test_schedule_endpoints_exact(self):
        assert pso_coefficients(0, 100) == (0.8, 1.5, 0.2)
        assert pso_coefficients(100, 100) == pytest.approx((0.2, 0.5, 3.0))

    def test_schedule_midpoint_is_arithmetic_mean(self):
        mid = pso_coefficients(50, 100)
        start = pso_coefficients(0, 100)
        end = pso_coefficients(100, 100)
        for m, s, e in zip(mid, start, end):
            assert m == pytest.approx((s + e) / 2)

    def test_schedule_linear(self):
        # Equal steps in t give equal steps in every coefficient.
        vals = [pso_coefficients(t, 100) for t in (10, 20, 30)]
        for i in range(3):
            d1 = vals[1][i] - vals[0][i]
            d2 = vals[2][i] - vals[1][i]
            assert d1 == pytest.approx(d2)


class TestCmaes:
    def test_strategy_params_shapes(self):
        sp = strategy_params(10, 10, 5)
        assert sp["weights"].shape == (5,)
        assert sp["weights"].sum() == pytest.approx(1.0)
        assert np.all(np.diff(sp["weights"]) < 0)  # decreasing
        for key in ("c_sigma", "d_sigma", "c_c", "c_1", "c_mu"):
            assert sp[key] > 0
        assert sp["c_1"] + sp["c_mu"] <= 1.0

    def test_default_popsize_formula(self):
        traj = run_with_budget(
            sphere_env(dim=10), OptimizerConfig(method="cmaes", budget=50, seed=0)
        )
        # d=10 -> lambda = 4 + floor(3 ln 10) = 10
        assert traj.resolved_config["options"] == {"sigma0": 0.3}
        gens = {r.iteration for r in traj.records}
        assert max(gens) == 4  # 50 evals / 10 per generation

    @pytest.mark.parametrize("dim, popsize", [(1, 4), (2, 6), (3, 7), (20, 12), (64, 16)])
    def test_population_is_four_plus_three_log_d_and_mu_half_of_it(self, monkeypatch, dim, popsize):
        calls = []

        def recording(*args):
            calls.append(args)
            return strategy_params(*args)

        monkeypatch.setattr(cmaes, "strategy_params", recording)
        traj = run_with_budget(
            sphere_env(dim=dim), OptimizerConfig(method="cmaes", budget=2 * popsize, seed=0)
        )
        assert calls == [(dim, popsize, popsize // 2)]
        assert [r.iteration for r in traj.records] == [0] * popsize + [1] * popsize

    def test_improves_sphere(self):
        traj = run_with_budget(
            sphere_env(dim=6), OptimizerConfig(method="cmaes", budget=600, seed=2)
        )
        assert -traj.best_reward < 1e-6

    def test_eigenvalue_floor_warns_once(self, monkeypatch):
        # A floor above the unit start covariance floors every generation.
        monkeypatch.setattr(cmaes, "EIGEN_FLOOR", 2.0)
        traj = run_with_budget(sphere_env(dim=3), OptimizerConfig(method="cmaes", budget=40, seed=0))
        assert len(traj) == 40
        assert traj.warnings == ("covariance eigenvalue floored at 2.0 in generation 0",)


def _reference_chol(k_mat):
    """The jitter ladder on numpy's Cholesky: (factor, jitter) or (None, None)."""
    jitter = JITTER_START
    while jitter <= JITTER_MAX:
        try:
            return np.linalg.cholesky(k_mat + jitter * np.eye(len(k_mat))), jitter
        except np.linalg.LinAlgError:
            jitter *= 2.0
    return None, None


def _reference_neg_mll_and_grad(x, y, theta):
    """The likelihood with four generic solves and an explicit inverse."""
    length, sf2, sn2 = np.exp(theta)
    n = len(x)
    a = np.sqrt(5.0) * np.sqrt(_sq_dists(x, x)) / length
    exp_a = np.exp(-a)
    k_mat = sf2 * (1.0 + a + a**2 / 3.0) * exp_a + sn2 * np.eye(n)
    chol, _ = _reference_chol(k_mat)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
    nll = float(
        0.5 * y @ alpha + np.sum(np.log(np.diag(chol))) + 0.5 * n * np.log(2.0 * np.pi)
    )
    k_inv = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(n)))
    w = k_inv - np.outer(alpha, alpha)
    dk_len = sf2 * (a**2 * (1.0 + a) / 3.0) * exp_a
    dk_sf = k_mat - sn2 * np.eye(n)
    grad = 0.5 * np.array(
        [np.sum(w * dk_len), np.sum(w * dk_sf), sn2 * np.trace(w)]
    )
    return nll, grad


def _gp_data(duplicates):
    rng = np.random.Generator(np.random.Philox(key=5))
    x = rng.random((25, 3))
    if duplicates:
        x = np.vstack([x[:12], x[:6]])
    return x, np.sin(4 * x[:, 0]) + x[:, 1] * x[:, 2]


def _forrester(u):
    x = float(u[0])
    return float((6 * x - 2) ** 2 * np.sin(12 * x - 4))


class _SphereBatches:
    """Sphere evaluator on [0, 1]^d that keeps each batch's size and each
    design's row, and fails the calls whose index is in `fail`."""

    def __init__(self, fail=()):
        self.sizes, self.rows, self.fail = [], [], set(fail)

    def batch_metrics(self, points, ops):
        self.sizes.append(len(points))
        out = []
        for point in points:
            row = np.array(list(point.values.values()))
            if len(self.rows) in self.fail:
                out.append(EvaluationError("synthetic failure"))
            else:
                out.append([{"value": float(np.sum((row - 0.5) ** 2))} for _ in ops])
            self.rows.append(row)
        return out


GP_THETAS = [np.log(t) for t in ([0.5, 1.0, 1e-3], [0.05, 0.1, 1e-5], [2.0, 4.0, 1e-5])]


class TestBo:
    @pytest.mark.parametrize("duplicates", [False, True])
    @pytest.mark.parametrize("theta", GP_THETAS)
    def test_likelihood_matches_four_solve_reference(self, duplicates, theta):
        x, y = _gp_data(duplicates)
        gp = _GP(x, y, lambda msg: None)
        val, grad = gp._neg_mll_and_grad(theta)
        ref_val, ref_grad = _reference_neg_mll_and_grad(x, gp.y, theta)
        assert val == pytest.approx(ref_val, rel=1e-10)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10)

    @pytest.mark.parametrize("duplicates", [False, True])
    @pytest.mark.parametrize("theta", GP_THETAS)
    def test_likelihood_gradient_matches_central_differences(self, duplicates, theta):
        x, y = _gp_data(duplicates)
        gp = _GP(x, y, lambda msg: None)
        _, grad = gp._neg_mll_and_grad(theta)
        h = 1e-5
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            up, _ = gp._neg_mll_and_grad(theta + step)
            down, _ = gp._neg_mll_and_grad(theta - step)
            assert grad[j] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-6)

    def test_jitter_ladder_on_duplicate_points(self):
        # The noise-free kernel of duplicated points is singular; shifted down
        # by 3e-8 the ladder must pass 1e-8 and 2e-8 and succeed at 4e-8.
        x, _ = _gp_data(duplicates=True)
        r = np.sqrt(5.0 * _sq_dists(x, x))
        k_mat = (1.0 + r + r**2 / 3.0) * np.exp(-r) - 3e-8 * np.eye(len(x))
        warnings = []
        chol = _chol(k_mat, 0.0, warnings.append)
        assert _reference_chol(k_mat)[1] == 4e-8
        np.testing.assert_allclose(
            chol @ chol.T, k_mat + 4e-8 * np.eye(len(x)), rtol=0, atol=1e-12
        )
        assert np.all(np.triu(chol, 1) == 0.0)
        assert warnings == []

    @pytest.mark.parametrize(
        "k_mat",
        [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, np.nan], [np.nan, 1.0]])],
        ids=["indefinite", "nan"],
    )
    def test_chol_gives_up_with_warning(self, k_mat):
        warnings = []
        assert _chol(k_mat, 0.0, warnings.append) is None
        assert len(warnings) == 1
        assert "not positive definite" in warnings[0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fit_once_per_model_guided_evaluation(self, monkeypatch, k):
        fits = []
        original = _GP.fit

        def counting_fit(gp, *args):
            fits.append(len(gp.x))
            return original(gp, *args)

        monkeypatch.setattr(_GP, "fit", counting_fit)
        for name, value in {"n_initial": 5, "fit_starts": 2, "fit_steps": 5}.items():
            monkeypatch.setitem(bo.DEFAULTS, name, value)
        traj = run_with_budget(sphere_env(2), OptimizerConfig(method="bo", budget=5 + k, seed=0))
        assert len(traj) == 5 + k
        # One fit per model-guided proposal, none after the budget is spent.
        assert fits == list(range(5, 5 + k))

    def test_fit_evaluates_default_theta_once(self, monkeypatch):
        thetas = []
        original = _GP._neg_mll_and_grad

        def recording(gp, theta):
            thetas.append(np.array(theta))
            return original(gp, theta)

        monkeypatch.setattr(_GP, "_neg_mll_and_grad", recording)
        x, y = _gp_data(duplicates=False)
        gp = _GP(x, y, lambda msg: None)
        default = gp.theta.copy()
        gp.fit(np.random.Generator(np.random.Philox(key=1)), {"fit_starts": 3, "fit_steps": 5, "fit_lr": 0.1})
        assert np.array_equal(thetas[0], default)
        assert sum(np.array_equal(t, default) for t in thetas) == 1

    @staticmethod
    def _record_fits(monkeypatch, fail=()):
        """The thetas each fit evaluated the likelihood at, and each fit's
        result; fits whose index is in `fail` then raise FloatingPointError,
        as a failed final factorization does."""
        evaluated, fitted = [], []
        original_fit, original_nll = _GP.fit, _GP._neg_mll_and_grad

        def recording_nll(gp, theta):
            evaluated[-1].append(np.array(theta))
            return original_nll(gp, theta)

        def recording_fit(gp, *args):
            evaluated.append([])
            original_fit(gp, *args)
            fitted.append(gp.theta.copy())
            if len(fitted) - 1 in fail:
                raise FloatingPointError("GP covariance factorization failed")

        monkeypatch.setattr(_GP, "_neg_mll_and_grad", recording_nll)
        monkeypatch.setattr(_GP, "fit", recording_fit)
        return evaluated, fitted

    @staticmethod
    def _run_sphere(monkeypatch, budget):
        # n_initial 5, so budget - 5 fits; fit_steps 8, so a warm fit makes <= 9 calls.
        monkeypatch.setitem(bo.DEFAULTS, "n_initial", 5)
        monkeypatch.setitem(bo.DEFAULTS, "fit_steps", 8)
        run_with_budget(sphere_env(2), OptimizerConfig(method="bo", budget=budget, seed=3))

    def test_each_fit_warm_starts_from_the_last_fitted_theta(self, monkeypatch):
        evaluated, fitted = self._record_fits(monkeypatch)
        self._run_sphere(monkeypatch, budget=12)
        assert len(fitted) == 7
        # The cold fit starts at the default theta and runs fit_starts (4) starts.
        assert np.array_equal(evaluated[0][0], DEFAULT_THETA)
        assert len(evaluated[0]) > 9
        for previous, thetas in zip(fitted, evaluated[1:]):
            assert np.array_equal(thetas[0], previous)
            assert len(thetas) <= 9

    def test_failed_fit_keeps_the_last_successful_theta(self, monkeypatch):
        evaluated, fitted = self._record_fits(monkeypatch, fail={2})
        self._run_sphere(monkeypatch, budget=10)
        # The failed fit moved theta, but the next fit starts where fit 1 ended.
        assert not np.array_equal(fitted[2], fitted[1])
        assert np.array_equal(evaluated[3][0], fitted[1])
        assert len(evaluated[3]) <= 9

    def test_fit_after_only_failures_runs_cold(self, monkeypatch):
        evaluated, fitted = self._record_fits(monkeypatch, fail={0, 1})
        self._run_sphere(monkeypatch, budget=9)
        for thetas in evaluated[:3]:
            assert np.array_equal(thetas[0], DEFAULT_THETA)
            assert len(thetas) > 9
        assert np.array_equal(evaluated[3][0], fitted[2])

    def test_constant_rewards_fit_without_warning(self):
        # Their standard deviation is 0; the GP standardizes them by 1 instead.
        env = function_environment(continuous_space({"x0": (0.0, 1.0), "x1": (0.0, 1.0)}), lambda u: 2.0)
        traj = run_with_budget(env, OptimizerConfig(method="bo", budget=36, seed=0))
        assert len(traj) == 36 and traj.warnings == ()

    def test_initial_design_is_one_batch(self):
        evaluator = _SphereBatches()
        traj = run_with_budget(
            sphere_env(2).with_evaluator(evaluator), OptimizerConfig(method="bo", budget=34, seed=0)
        )
        assert evaluator.sizes == [30, 1, 1, 1, 1]
        assert [r.iteration for r in traj.records] == [0] * 30 + [1, 2, 3, 4]

    def test_error_rows_of_the_initial_design_are_replaced_in_later_batches(self, monkeypatch):
        fits = []
        original = _GP.fit
        monkeypatch.setattr(_GP, "fit", lambda gp, *args: fits.append(len(gp.x)) or original(gp, *args))
        # Calls 3 and 17 fail in the first batch, call 30 in the second.
        evaluator = _SphereBatches(fail={3, 17, 30})
        traj = run_with_budget(
            sphere_env(2).with_evaluator(evaluator), OptimizerConfig(method="bo", budget=36, seed=0)
        )
        assert evaluator.sizes == [30, 2, 1, 1, 1, 1]
        assert [r.iteration for r in traj.records] == [0] * 33 + [1, 2, 3]
        assert [i for i, r in enumerate(traj.records) if r.error] == [3, 17, 30]
        assert fits == [30]

    def test_warm_fit_stops_at_the_first_accepted_step_that_stops_paying(self, monkeypatch):
        # Noisy data: the likelihood has an interior optimum that the fit reaches.
        rng = np.random.Generator(np.random.Philox(key=1))
        x = rng.random((30, 2))
        y = np.sin(4 * x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(30)
        opts = {"fit_starts": 4, "fit_steps": 40, "fit_lr": 0.1}

        def warm_fit_values():
            values = []
            original = _GP._neg_mll_and_grad

            def recording(gp, theta):
                val, grad = original(gp, theta)
                values.append(val)
                return val, grad

            with monkeypatch.context() as m:
                m.setattr(_GP, "_neg_mll_and_grad", recording)
                _GP(x, y, lambda msg: None, DEFAULT_THETA).fit(None, opts)
            return values

        with monkeypatch.context() as m:
            m.setattr(bo, "FIT_FTOL", 0.0)
            # Without the stop rule this fit takes every step.
            assert len(warm_fit_values()) == opts["fit_steps"] + 1
        values = warm_fit_values()
        assert len(values) < opts["fit_steps"] + 1
        # The fit ends at the first accepted step whose relative gain is <= FIT_FTOL.
        current, stop = values[0], None
        for i, val in enumerate(values[1:], start=1):
            if val < current:
                if current - val <= bo.FIT_FTOL * max(abs(current), abs(val), 1.0):
                    stop = i
                    break
                current = val
        assert stop == len(values) - 1

    @staticmethod
    def _record_rounds(monkeypatch):
        """Per model round: the data count, whether it fitted, its likelihood
        evaluations, its potri calls and the theta it predicted with."""
        rounds = []
        original_init, original_fit = _GP.__init__, _GP.fit
        original_nll, original_potri = _GP._neg_mll_and_grad, bo.dpotri

        def init(gp, x, *args):
            original_init(gp, x, *args)
            rounds.append({"n": len(x), "fit": False, "nll": 0, "potri": 0})

        def fit(gp, *args):
            rounds[-1]["fit"] = True
            original_fit(gp, *args)

        def nll(gp, theta):
            rounds[-1]["nll"] += 1
            return original_nll(gp, theta)

        def potri(*args, **kwargs):
            rounds[-1]["potri"] += 1
            return original_potri(*args, **kwargs)

        monkeypatch.setattr(_GP, "__init__", init)
        monkeypatch.setattr(_GP, "fit", fit)
        monkeypatch.setattr(_GP, "_neg_mll_and_grad", nll)
        monkeypatch.setattr(bo, "dpotri", potri)
        return rounds

    def test_refits_when_the_data_has_grown_by_a_tenth(self, monkeypatch):
        rounds = self._record_rounds(monkeypatch)
        run_with_budget(sphere_env(2), OptimizerConfig(method="bo", budget=60, seed=0))
        assert [r["n"] for r in rounds] == list(range(30, 60))
        assert [r["n"] for r in rounds if r["fit"]] == [30, 33, 36, 39, 42, 46, 50, 55]

    def test_a_round_that_keeps_theta_evaluates_no_likelihood(self, monkeypatch):
        rounds = self._record_rounds(monkeypatch)
        thetas = []
        original_posterior = _GP.posterior
        monkeypatch.setattr(
            _GP, "posterior", lambda gp, x: thetas.append(gp.theta) or original_posterior(gp, x)
        )
        run_with_budget(sphere_env(2), OptimizerConfig(method="bo", budget=60, seed=0))
        kept = [r for r in rounds if not r["fit"]]
        assert len(kept) == 22
        assert all(r["nll"] == 0 and r["potri"] == 0 for r in kept)
        assert all(r["nll"] > 0 for r in rounds if r["fit"])
        # Both posterior calls of a round predict at the last fitted theta.
        fitted = None
        for r, theta in zip(rounds, thetas[::2]):
            if r["fit"]:
                fitted = theta
            assert np.array_equal(theta, fitted)

    def test_failed_factorization_at_kept_theta_draws_a_random_row_then_refits(self, monkeypatch):
        rounds = self._record_rounds(monkeypatch)
        expected = []
        rngs = []
        original_fit, original_factor = _GP.fit, _GP.factor

        def fit(gp, rng, opts):
            rngs.append(rng)
            original_fit(gp, rng, opts)

        def factor(gp):
            # Round n = 31 keeps theta; its factorization fails, and the
            # fallback draws the next uniform row of the run's generator.
            if not rounds[-1]["fit"] and len(gp.x) == 31:
                expected.append(copy.deepcopy(rngs[-1]).random(2))
                raise FloatingPointError("GP covariance factorization failed")
            original_factor(gp)

        monkeypatch.setattr(_GP, "fit", fit)
        monkeypatch.setattr(_GP, "factor", factor)
        evaluator = _SphereBatches()
        run_with_budget(
            sphere_env(2).with_evaluator(evaluator), OptimizerConfig(method="bo", budget=40, seed=0)
        )
        assert len(expected) == 1
        assert np.array_equal(evaluator.rows[31], expected[0])
        assert [r["n"] for r in rounds if r["fit"]] == [30, 32, 35, 38]

    def test_log_ei_finite_increasing_and_equal_to_log_ei_where_representable(self):
        mu = np.linspace(-40.0, 3.0, 4301)
        lei = log_expected_improvement(mu, np.ones_like(mu), 0.0)
        assert np.all(np.isfinite(lei))
        assert np.all(np.diff(lei) > 0)
        ei = mu * norm.cdf(mu) + norm.pdf(mu)
        shown = ei > 1e-200
        assert shown.sum() > 3000
        # Relative: near z = -30 the direct formula itself loses about 1e-10 of
        # log(EI) ~ -458 to cancellation between phi(z) and z Phi(z).
        np.testing.assert_allclose(lei[shown], np.log(ei[shown]), rtol=1e-12, atol=0)

    def test_log_ei_tail_stays_finite_and_decreasing(self):
        z = -np.logspace(0.0, 9.0, 20001)
        lei = log_expected_improvement(z, np.ones_like(z), 0.0)
        assert np.all(np.isfinite(lei))
        assert np.all(np.diff(lei) < 0)

    def test_log_ei_upper_branch_is_the_norm_form_bit_for_bit(self):
        # z > -1 takes log(phi + z Phi) with phi and Phi written out; it must
        # be scipy's norm.pdf and norm.cdf to the last bit, from the first
        # doubles above -1 to z = 40.
        just_above = np.nextafter(-1.0, 0.0) + np.arange(64) * np.spacing(1.0)
        grid = np.linspace(-1.0, 40.0, 400_001)[1:]
        seeded = np.random.default_rng(7).uniform(-1.0, 40.0, 100_000)
        z = np.concatenate([just_above, grid, seeded[seeded > -1.0]])
        assert np.all(z > -1.0) and z.max() == 40.0
        got = bo._log_h(z)
        want = np.log(norm.pdf(z) + z * norm.cdf(z))
        differ = [(v, a.hex(), b.hex()) for v, a, b in zip(z.tolist(), got.tolist(), want.tolist())
                  if a.hex() != b.hex()]
        assert differ == []

    # d = 1, every catalog dimension, and one above 40.
    SOBOL_DIMS = sorted({1, 45} | {get_environment(task).space.relaxed_dim for task in task_ids()})

    @pytest.mark.filterwarnings("ignore:The balance properties:UserWarning")
    @pytest.mark.parametrize("dim", SOBOL_DIMS)
    def test_sobol_candidates_are_scipys_bit_for_bit(self, dim):
        # A scipy release that changes its scrambling or its draw order fails here.
        from scipy.stats import qmc

        for seed in (0, 7, 2**31 - 1):
            for n in (1, 2, 3, 256):
                want = qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)
                got = bo._sobol(dim, n, seed)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, n)

    @pytest.mark.parametrize("dim", SOBOL_DIMS)
    def test_sobol_direction_numbers_give_scipys_unscrambled_points(self, dim):
        from scipy.stats import qmc

        v = bo._direction_numbers(dim)
        n = 256
        k = np.arange(1, n)
        steps = np.zeros((n, dim), dtype=np.uint32)
        steps[1:] = v.T[np.frexp(k & -k)[1] - 1]
        got = np.bitwise_xor.accumulate(steps, axis=0) * 2.0**-bo.SOBOL_BITS
        want = qmc.Sobol(d=dim, scramble=False).random(n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_posterior_solve_is_scipys_bit_for_bit(self):
        from scipy.linalg import solve_triangular

        x, y = _gp_data(duplicates=False)
        gp = _GP(x, y, lambda msg: None)
        gp.fit(np.random.Generator(np.random.Philox(key=5)), bo.DEFAULTS)
        x_new = np.random.Generator(np.random.Philox(key=6)).random((64, x.shape[1]))
        length, sf2, _ = np.exp(gp.theta)
        k_star = bo._matern52(bo._scaled_dists(x_new, gp.x), length, sf2)[0]
        v = solve_triangular(gp._chol_cache, k_star.T, lower=True, check_finite=False)
        want = np.sqrt(np.maximum(sf2 - np.sum(v**2, axis=0), 1e-12))
        _, got = gp.posterior(x_new)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_refinement_batch_draws_the_per_trial_values(self):
        # bo draws its 3 * n_refine perturbations as one batch; on the Philox
        # stream that is the same values, in the same order, leaving the same
        # state, as one draw of `dim` per trial.
        rng = continuous_space({"x": (0.0, 1.0)}).rng
        for seed in range(10):
            for dim in (1, 3, 6, 17):
                one, batch = rng(seed), rng(seed)
                rows = [one.normal(0.0, 0.05, size=dim) for _ in range(30)]
                assert np.array_equal(np.array(rows), batch.normal(0.0, 0.05, size=(30, dim)))
                assert repr(one.bit_generator.state) == repr(batch.bit_generator.state)

    def test_forrester_acquisition_has_no_ties(self, monkeypatch):
        # Under a log(max(EI, 1e-300)) floor, most Sobol candidates of this run
        # tied on that floor; distinct candidates must get distinct values.
        calls = []

        def recording(mu, sigma, best):
            lei = log_expected_improvement(mu, sigma, best)
            calls.append(lei)
            return lei

        monkeypatch.setattr(bo, "log_expected_improvement", recording)
        env = function_environment(continuous_space({"x": (0.0, 1.0)}), _forrester, MINIMIZE)
        run_with_budget(env, OptimizerConfig(method="bo", budget=60, seed=11))
        sobol = [lei for lei in calls if len(lei) == bo.DEFAULTS["n_candidates"]]
        assert len(sobol) == 30
        for lei in sobol:
            assert np.all(np.isfinite(lei))
            assert len(np.unique(lei)) == len(lei)

    def test_mll_nondecreasing_over_accepted_steps(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        x = rng.random((20, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        gp = _GP(x, y, lambda msg: None)
        before, _ = gp._neg_mll_and_grad(gp.theta)
        gp.fit(rng, {"fit_starts": 3, "fit_steps": 25, "fit_lr": 0.1})
        after, _ = gp._neg_mll_and_grad(gp.theta)
        assert after <= before + 1e-12

    def test_posterior_interpolates_noise_free_data(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        x = rng.random((15, 1))
        y = np.sin(6 * x[:, 0])
        gp = _GP(x, y, lambda msg: None)
        gp.fit(rng, {"fit_starts": 3, "fit_steps": 40, "fit_lr": 0.1})
        mu, sigma = gp.posterior(x)
        denorm = mu * gp.y_std + gp.y_mean
        assert np.max(np.abs(denorm - y)) < 0.1

    def test_finds_multimodal_basin(self):
        space = continuous_space({"x": (0.0, 1.0)})
        env = function_environment(space, _forrester, MINIMIZE)
        traj = run_with_budget(env, OptimizerConfig(method="bo", budget=60, seed=11))
        assert abs(traj.best_design.values["x"] - 0.757249) <= 0.05


class TestEvolve:
    def test_power_law_parent_selection_limit(self):
        archive = Archive(capacity=10)
        for i in range(10):
            archive.add(float(-i), np.full(2, i / 10))
        best = archive.best[1]
        rng = np.random.Generator(np.random.Philox(key=0))
        hits = sum(
            np.array_equal(archive.sample_parent(rng, 50.0), best)
            for _ in range(1000)
        )
        assert hits >= 999

    def test_archive_evicts_worst(self):
        archive = Archive(capacity=3)
        for reward in (1.0, 5.0, 3.0, 4.0):
            archive.add(reward, np.array([reward]))
        rewards = [r for r, _ in archive.entries]
        assert rewards == [5.0, 4.0, 3.0]

    def test_archive_order_is_append_then_stable_sort(self):
        # Ties are frequent: equal rewards must stay in arrival order.
        rewards = np.random.Generator(np.random.Philox(key=2)).integers(0, 8, size=200)
        archive, reference = Archive(capacity=20), []
        for i, reward in enumerate(rewards.astype(float).tolist()):
            archive.add(reward, np.array([float(i)]))
            reference.append((reward, i))
            reference.sort(key=lambda e: -e[0])
            del reference[20:]
            assert [(r, int(u[0])) for r, u in archive.entries] == reference

    def test_rank_probabilities_are_the_per_draw_arithmetic(self):
        for n in (1, 2, 7, 100):
            for pw_alpha in (0.5, 3.0):
                probs = np.arange(1, n + 1, dtype=float) ** (-pw_alpha)
                probs /= probs.sum()
                assert np.array_equal(evolve._rank_probs(n, pw_alpha), probs)

    def test_parent_draw_is_generator_choice(self):
        # A draw from the cached CDF picks the rank `Generator.choice` picks
        # with the same probabilities, and leaves the generator in the same state.
        for seed in (0, 1, 7, 2024):
            for pw_alpha in (0.5, 3.0):
                archive = Archive(capacity=100)
                drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
                for n in range(1, 101):
                    archive.add(float(-n), np.array([float(n - 1)]))  # rank k holds k
                    for _ in range(5):
                        parent = int(archive.sample_parent(drawn, pw_alpha)[0])
                        assert parent == int(chosen.choice(n, p=evolve._rank_probs(n, pw_alpha)))
                    assert drawn.bit_generator.state == chosen.bit_generator.state

    def test_mutation_scale_decay(self):
        assert mutation_scale(0.0, 0.3, 0.1) == pytest.approx(0.3)
        assert mutation_scale(1.0, 0.3, 0.1) == pytest.approx(0.03)

    def test_one_archive_proposes_generations_of_batch_size_children(self):
        # One random design fills the empty archive; then every generation is
        # batch_size children of that one archive until the budget is spent.
        traj = run_with_budget(sphere_env(), OptimizerConfig(method="evolve", budget=100, seed=0))
        iterations = [r.iteration for r in traj.records]
        batch = evolve.DEFAULTS["batch_size"]
        expected = [0] + [gen for gen in range(1, 100) for _ in range(batch)]
        assert iterations == expected[:100]


class TestOnCatalogTasks:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_applies_to_every_task_with_its_defaults(self, method):
        # Every method runs at its fixed settings, so no cell of a catalog grid is refused.
        config = OptimizerConfig(method=method, budget=1, seed=0)
        for task_id in task_ids():
            config.check(get_environment(task_id).space, task_id)

    @pytest.mark.parametrize("task_id", ["delta-ld-single", "ceras-fuel-mixed"])
    @pytest.mark.parametrize("method", ["pso", "evolve", "cmaes"])
    def test_mixed_spaces_supported(self, task_id, method):
        env = get_environment(task_id)
        try:
            traj = run_with_budget(env, OptimizerConfig(method=method, budget=60, seed=0))
            assert len(traj) == 60
            assert traj.best_reward is not None
        finally:
            env.close()

    def test_lbfgsb_works_on_mixed_space_with_continuous_part(self):
        env = get_environment("ceras-fuel-mixed")
        try:
            traj = run_with_budget(env, OptimizerConfig(method="lbfgsb", budget=80, seed=0))
            assert len(traj) == 80
        finally:
            env.close()
