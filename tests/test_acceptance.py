"""Acceptance gate: nine criteria, one pass/fail line each.

Each test emits "[PASS] criterion N: ..." (or FAIL) with capture disabled
so the lines appear in the live test log.
"""
import contextlib
import sys
import time

import numpy as np
import pytest

from aerobench.analytics import normalized_rank, spearman_rho
from aerobench.cli import main as cli_main
from aerobench.diagnostics import (
    DiagnosticInputs,
    build_evidence_bundle,
    check_aero,
    check_geometry,
)
from aerobench.optimizers import OptimizerConfig, method_names, run_with_budget
from aerobench.problems import (
    MINIMIZE,
    SubprocessEvaluator,
    function_environment,
    get_environment,
)
from aerobench.problems.base import OperatingPoint
from aerobench.problems.formulas import (
    bisect_alpha_to_cl,
    pareto_front,
    penalized_reward,
    reynolds_schedule,
)
from aerobench.optimizers.pso import pso_coefficients
from aerobench.space import DesignPoint, continuous_space

TOL = 1e-9


@contextlib.contextmanager
def criterion(num: int, label: str, cap):
    """Emit exactly one pass/fail line per criterion past pytest's capture."""

    def emit(verdict: str) -> None:
        with cap.disabled():
            print(f"[{verdict}] criterion {num}: {label}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def _sphere_env(dim=10):
    space = continuous_space({f"x{i}": (0.0, 1.0) for i in range(dim)})
    return function_environment(
        space, lambda u: float(np.sum((u - 0.5) ** 2)), MINIMIZE, "sphere"
    )


def _best(env, method, budget, seed):
    traj = run_with_budget(env, OptimizerConfig(method=method, budget=budget, seed=seed))
    return traj.best_reward, traj


def test_criterion_1_diagnostic_golden(golden, car_env, golden_artifacts, capfd):
    with criterion(1, "diagnostic golden reproduction (tol 1e-9, < 1 s)", capfd):
        start = time.perf_counter()
        exp = golden["expected"]
        inputs = DiagnosticInputs(
            environment=golden["environment"],
            design_id=golden["design_id"],
            space=car_env.space,
            design_params=golden["design_params"],
            metrics=golden["metrics"],
            artifacts={
                "base_vtk_path": golden_artifacts["base_vtk_path"],
                "norm_stats_path": golden_artifacts["norm_stats_path"],
            },
            images=tuple(golden_artifacts["images"]),
            profile=car_env.diagnostics_profile,
        )
        geo = {c.check_id: c for c in check_geometry(inputs)}
        g001 = geo["G001_param_extremeness_ratio"]
        assert abs(g001.value["near_bound_fraction"] - 0.8) <= TOL
        assert g001.value["near_bound_keys"] == exp["near_bound_keys"]
        assert len(g001.value["near_bound_keys"]) == 16
        assert abs(g001.severity - 0.9) <= TOL
        g002 = geo["G002_combined_angle_stress"]
        assert abs(g002.value["combined_abs_angle_sum"] - 47.121438172129935) <= TOL
        assert abs(g002.severity - 0.9061815033101911) <= TOL
        g003 = geo["G003_size_width_length_coupling"]
        assert abs(g003.value["coupling_score"] - 2.4024288886953036) <= TOL
        assert abs(g003.severity - 0.8008096295651012) <= TOL
        aero = {c.check_id: c for c in check_aero(inputs)}
        assert abs(aero["A001_drag_decomposition_consistency"].value["rel_err"] - 0.0) <= TOL
        assert abs(aero["A002_cd_plausible_range"].value - 0.06515849149679837) <= TOL
        bundle = build_evidence_bundle(inputs)
        summary = bundle["evidence_bundle"]["summary"]
        assert summary["feasibility"]["ok"] == 6
        assert summary["geometry"]["warning"] == 3
        assert summary["aero"]["ok"] == 4
        assert time.perf_counter() - start < 1.0


def test_criterion_2_optimizer_sanity(capfd):
    with criterion(
        2,
        "optimizer sanity (sphere/quadratic/multimodal targets, < 2 min)",
        capfd,
    ):
        start = time.perf_counter()

        for method, tol in (("cmaes", 1e-3), ("pso", 1e-3), ("evolve", 1e-2)):
            for seed in range(10):
                best, _ = _best(_sphere_env(), method, 5000, seed)
                assert -best <= tol, (method, seed, -best)

        rng = np.random.Generator(np.random.Philox(key=17))
        a_mat = rng.random((10, 10))
        h = a_mat @ a_mat.T + np.eye(10)
        center = np.full(10, 0.45)
        quad_env = lambda: function_environment(
            continuous_space({f"x{i}": (0.0, 1.0) for i in range(10)}),
            lambda u: float((u - center) @ h @ (u - center)),
            MINIMIZE,
            "quadratic",
        )
        for seed in range(10):
            best, _ = _best(quad_env(), "lbfgsb", 5000, seed)
            assert -best <= 1e-6, (seed, -best)

        # 1-D multimodal global basin; dense-grid oracle for the optimum.
        def forrester(u):
            x = float(u[0])
            return float((6 * x - 2) ** 2 * np.sin(12 * x - 4))

        grid = np.linspace(0.0, 1.0, 200001)
        x_star = grid[np.argmin((6 * grid - 2) ** 2 * np.sin(12 * grid - 4))]
        hits = 0
        for seed in range(20):
            env = function_environment(
                continuous_space({"x": (0.0, 1.0)}), forrester, MINIMIZE, "forrester"
            )
            _, traj = _best(env, "bo", 60, seed)
            if abs(traj.best_design.values["x"] - x_star) <= 0.05:
                hits += 1
        assert hits >= 18, hits

        assert time.perf_counter() - start < 120.0


class _CountingEvaluator:
    """Counts whole-design evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.designs = 0

    def batch_metrics(self, points, ops):
        self.designs += len(points)
        return self.inner.batch_metrics(points, ops)


def test_criterion_3_budget_protocol(capfd):
    tasks = (
        "airfoil-ld-single",
        "delta-ld-single",
        "bwb-drag-multipoint",
        "transonic-drag-single",
        "cca-ld-single",
        "car-drag-single",
        "ceras-fuel-mixed",
    )
    methods = method_names()
    assert len(tasks) * len(methods) == 35
    with criterion(3, "budget protocol on 35 method x task combinations", capfd):
        budget = 30
        for task in tasks:
            base = get_environment(task)
            try:
                warm = [base.space.clip(base.space.sample_uniform(seed=1, n=1)[0])]
                for method in methods:
                    counter = _CountingEvaluator(base.evaluator)
                    env = base.with_evaluator(counter)
                    traj = run_with_budget(
                        env,
                        OptimizerConfig(method=method, budget=budget, seed=0),
                        warmstart=warm,
                    )
                    # Instrumented count includes FD stencils and the
                    # warm-start evaluation; it spends the budget exactly.
                    assert counter.designs == budget, (task, method, counter.designs)
                    assert counter.designs == len(traj.records), (task, method)
            finally:
                base.close()


def test_criterion_4_schedules_and_formulas(capfd):
    with criterion(4, "PSO schedule, Reynolds schedule, penalty formula", capfd):
        T = 1000
        assert pso_coefficients(0, T) == (0.8, 1.5, 0.2)
        assert pso_coefficients(T // 2, T) == (0.5, 1.0, 1.6)
        assert pso_coefficients(T, T) == (0.2, 0.5, 3.0)
        assert reynolds_schedule(1.25) == 500000.0
        assert abs(reynolds_schedule(0.8) - 625000.0) <= 1e-6 * 625000.0
        assert penalized_reward(300.0, {"v": 1.0}, 500.0) == -200.0


def test_criterion_5_bisection(capfd):
    with criterion(5, "alpha bisection within 17/256 deg for all five targets", capfd):
        slope, intercept = 0.02, 0.1

        def cl(alpha):
            return intercept + slope * alpha

        for target in (0.185, 0.206, 0.206, 0.206, 0.227):
            alpha, bracketed = bisect_alpha_to_cl(cl, target, -5.0, 12.0, iters=8)
            assert bracketed
            alpha_star = (target - intercept) / slope
            assert abs(alpha - alpha_star) <= 17.0 / 256.0, target


def _pareto_oracle(points, senses):
    pts = np.asarray(points, dtype=float)
    signed = pts * np.array([1.0 if s == "maximize" else -1.0 for s in senses])
    n = len(pts)
    front = []
    for i in range(n):
        ge = np.all(signed >= signed[i], axis=1)
        gt = np.any(signed > signed[i], axis=1)
        if not np.any(ge & gt):
            front.append(i)
    return front


def test_criterion_6_analytics_oracles(capfd):
    with criterion(6, "Spearman values, rank invariance, Pareto oracle (10^3 each)", capfd):
        assert abs(spearman_rho([1, 2, 3, 4], [1, 2, 3, 4]) - 1.0) <= 1e-12
        assert abs(spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) + 1.0) <= 1e-12
        assert abs(spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) <= 1e-12

        rng = np.random.Generator(np.random.Philox(key=21))
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            scores = rng.permutation(100)[:n].astype(float)
            values = {f"m{i}": float(v) for i, v in enumerate(scores)}
            base = normalized_rank(values)
            a, b = float(rng.random() * 5 + 0.1), float(rng.normal())
            mapped = normalized_rank({k: a * v**3 + b for k, v in values.items()})
            for k in values:
                assert abs(mapped[k] - base[k]) <= 1e-12

        for _ in range(1000):
            n = int(rng.integers(1, 201))
            d = int(rng.integers(2, 4))
            pts = rng.random((n, d))
            senses = [
                "maximize" if rng.random() < 0.5 else "minimize" for _ in range(d)
            ]
            assert sorted(pareto_front(pts, senses)) == sorted(
                _pareto_oracle(pts, senses)
            )


def test_criterion_7_gradient_check(capfd):
    with criterion(7, "FD vs analytic gradients <= 1e-5 at 100 interior points/task", capfd):
        from aerobench.problems.catalog import task_ids

        rng = np.random.Generator(np.random.Philox(key=23))
        eps = 1e-6
        for task in task_ids():
            env = get_environment(task)
            try:
                if env.landscape_gradient is None:
                    continue
                dim = env.space.relaxed_dim
                for _ in range(100):
                    u = 0.05 + 0.9 * rng.random(dim)
                    grad = env.landscape_gradient(u)
                    fd = np.empty(dim)
                    for i in range(dim):
                        up, um = u.copy(), u.copy()
                        up[i] += eps
                        um[i] -= eps
                        fd[i] = (
                            env.landscape_value(up) - env.landscape_value(um)
                        ) / (2 * eps)
                    assert np.max(np.abs(grad - fd)) <= 1e-5, task
            finally:
                env.close()


def test_criterion_8_reproducibility(tmp_path, capfd):
    with criterion(8, "byte-identical results.csv on repeated runs, every method", capfd):
        for method in method_names():
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{method}_{tag}"
                code = cli_main(
                    [
                        "run",
                        "--task", "delta-ld-single",
                        "--method", method,
                        "--seeds", "0",
                        "--budget", "40",
                        "--out", str(out),
                    ]
                )
                assert code == 0, method
                outs.append(
                    out / "delta-ld-single" / method / "seed0" / "results.csv"
                )
            assert outs[0].read_bytes() == outs[1].read_bytes(), method


def test_criterion_9_subprocess_protocol(capfd):
    with criterion(9, "10^3 echo round-trips; crashing evaluator -> clean error", capfd):
        command = [sys.executable, "-m", "aerobench.problems.echo_evaluator", "echo"]
        ev = SubprocessEvaluator(command)
        op = OperatingPoint(alpha=1.0)
        try:
            for i in range(1000):
                point = DesignPoint(values={"a": float(i), "b": 0.25})
                metrics = ev.point_metrics(point, op, 0)
                assert metrics["param_sum"] == pytest.approx(i + 0.25)
        finally:
            ev.close()

        garbage = [sys.executable, "-m", "aerobench.problems.echo_evaluator", "garbage"]
        env = get_environment("delta-ld-single").with_evaluator(SubprocessEvaluator(garbage))
        try:
            traj = run_with_budget(
                env, OptimizerConfig(method="evolve", budget=5, seed=0)
            )
        finally:
            env.close()
        assert len(traj.records) == 5
        for rec in traj.records:
            assert rec.reward is None
            assert rec.error is not None
        assert traj.best_reward is None
