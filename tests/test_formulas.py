"""Scalarization, schedules, bisection, and geometry formula oracles."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aerobench.problems.formulas import (
    CAR_A_REF_M2,
    CAR_Q_INF_PA,
    FormulaError,
    bisect_alpha_to_cl,
    car_drag_coefficient,
    fractional_violation,
    integrated_drag,
    pareto_front,
    penalized_reward,
    reynolds_schedule,
    robust_min,
    weighted_multipoint,
    wiggliness,
)


class TestPenalizedReward:
    def test_frozen_oracle(self):
        # raw 10, violations 0.1 + 0.25, lambda 500 -> 10 - 500*0.35 = -165
        assert penalized_reward(10.0, {"a": 0.1, "b": 0.25}, 500.0) == pytest.approx(-165.0)

    def test_acceptance_value_exact(self):
        assert penalized_reward(300.0, {"v": 1.0}, 500.0) == -200.0

    def test_no_violations_identity(self):
        assert penalized_reward(42.0, {}, 500.0) == 42.0

    def test_violation_out_of_range_rejected(self):
        with pytest.raises(FormulaError):
            penalized_reward(1.0, {"v": 1.5}, 500.0)
        with pytest.raises(FormulaError):
            penalized_reward(1.0, {"v": -0.1}, 500.0)

    @given(
        raw=st.floats(-100, 100),
        v=st.floats(0.0, 1.0),
        lam=st.floats(0.0, 1000.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_violation(self, raw, v, lam):
        assert penalized_reward(raw, {"v": v}, lam) <= penalized_reward(raw, {}, lam)


class TestReynoldsSchedule:
    def test_reference_lift(self):
        assert reynolds_schedule(1.25) == 500000.0

    def test_low_lift_exact(self):
        assert reynolds_schedule(0.8) == pytest.approx(625000.0, rel=1e-6)

    def test_cl_16(self):
        # 500000 * (1.6/1.25)^-0.5
        assert reynolds_schedule(1.6) == pytest.approx(441941.738241592, rel=1e-9)

    def test_decreasing_in_cl(self):
        cls = np.linspace(0.5, 2.0, 20)
        res = [reynolds_schedule(c) for c in cls]
        assert all(a > b for a, b in zip(res, res[1:]))


class TestWeightedMultipoint:
    def test_weighted_mean(self):
        # (1*50 + 3*60) / 4 = 57.5
        assert weighted_multipoint([50.0, 60.0], [1.0, 3.0]) == pytest.approx(57.5)

    def test_airfoil_polar_shape(self):
        values = [60.0, 58.0, 57.0, 58.0, 59.0, 60.0]
        weights = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        expected = sum(v * w for v, w in zip(values, weights)) / sum(weights)
        assert weighted_multipoint(values, weights) == pytest.approx(expected)

    def test_uniform_weights_are_mean(self):
        assert weighted_multipoint([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(2.0)


class TestRobustMin:
    def test_worst_case(self):
        assert robust_min([3.0, 1.5, 2.0]) == 1.5

    def test_single(self):
        assert robust_min([4.0]) == 4.0


class TestBisection:
    def test_linear_cl_all_bwb_targets(self):
        # Linear lift curve over [-5, 12]; 8 halvings leave at most
        # (12 - (-5)) / 2^8 = 17/256 degrees of bracket error.
        slope, intercept = 0.02, 0.1

        def cl(alpha):
            return intercept + slope * alpha

        for target in (0.185, 0.206, 0.206, 0.206, 0.227):
            alpha_star = (target - intercept) / slope
            alpha, bracketed = bisect_alpha_to_cl(cl, target, -5.0, 12.0, iters=8)
            assert bracketed
            assert abs(alpha - alpha_star) <= 17.0 / 256.0

    def test_unbracketed_target_returns_nearest_endpoint(self):
        alpha, bracketed = bisect_alpha_to_cl(lambda a: 0.1 + 0.02 * a, 5.0, -5.0, 12.0)
        assert not bracketed
        assert alpha == 12.0

    def test_exact_iteration_count(self):
        calls = []

        def cl(alpha):
            calls.append(alpha)
            return 0.01 * alpha

        bisect_alpha_to_cl(cl, 0.03, -5.0, 12.0, iters=8)
        # Two endpoint evaluations plus one per halving.
        assert len(calls) == 10


class TestIntegratedDrag:
    def test_pressure_and_friction_sum(self):
        cells = [
            (1.0, 0.003, 0.5, 0.1),
            (-0.5, 0.004, 0.5, -0.2),
        ]
        expected = sum((cp * nx + cfx) * area for cp, cfx, area, nx in cells) / 0.8
        assert integrated_drag(cells, s_ref=0.8) == pytest.approx(expected)


class TestCarDrag:
    def test_golden_cd(self, golden):
        m = golden["metrics"]
        cd = car_drag_coefficient(m["drag_pressure"], m["drag_shear"])
        assert cd == pytest.approx(golden["expected"]["cd"], abs=1e-9)

    def test_reference_conditions(self):
        assert CAR_Q_INF_PA == 1000.0
        assert CAR_A_REF_M2 == 2.37
        assert car_drag_coefficient(CAR_Q_INF_PA * CAR_A_REF_M2, 0.0) == pytest.approx(1.0)


def _pareto_oracle(points, senses):
    """O(n^2) reference: a point is kept iff no other point dominates it."""
    signs = np.array([1.0 if s == "maximize" else -1.0 for s in senses])
    pts = np.asarray(points, dtype=float) * signs
    keep = []
    for i in range(len(pts)):
        dominated = False
        for j in range(len(pts)):
            if i == j:
                continue
            if np.all(pts[j] >= pts[i]) and np.any(pts[j] > pts[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


class TestParetoFront:
    def test_two_axis_example(self):
        points = [(10.0, 0.2), (9.0, 0.1), (11.0, 0.3), (8.0, 0.4)]
        idx = pareto_front(points, ("maximize", "minimize"))
        assert set(idx) == {0, 1, 2}

    def test_duplicates_kept_together(self):
        points = [(1.0, 1.0), (1.0, 1.0), (0.0, 2.0)]
        idx = pareto_front(points, ("maximize", "maximize"))
        assert set(idx) == {0, 1, 2}

    def test_matches_oracle_randomized(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        for _ in range(200):
            n = int(rng.integers(1, 60))
            d = int(rng.integers(2, 4))
            senses = ["maximize" if rng.random() < 0.5 else "minimize" for _ in range(d)]
            pts = rng.random((n, d))
            assert sorted(pareto_front(pts, senses)) == sorted(_pareto_oracle(pts, senses))


class TestWiggliness:
    def test_straight_line_weights_zero(self):
        rows = [np.linspace(0.0, 1.0, 8)]
        assert wiggliness(rows) == pytest.approx(0.0)

    def test_oscillation_positive(self):
        rows = [np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])]
        assert wiggliness(rows) > 1.0


class TestFractionalViolation:
    def test_clipped_to_unit(self):
        assert fractional_violation(-1.0, 2.0) == 0.0
        assert fractional_violation(1.0, 2.0) == 0.5
        assert fractional_violation(5.0, 2.0) == 1.0

    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
    )
    @example(-0.0, 1.0)
    @example(0.0, 1.0)
    @example(-1e-300, 1.0)
    @example(math.inf, 1.0)
    @example(-math.inf, 1.0)
    @example(math.nan, 1.0)
    @example(-math.nan, 1.0)
    @example(1.0, math.inf)
    @settings(max_examples=500, deadline=None)
    def test_same_bits_as_numpy_clip(self, excess, scale):
        ref = float(np.clip(excess / scale, 0.0, 1.0))
        got = fractional_violation(excess, scale)
        assert type(got) is float
        assert got.hex() == ref.hex()
        assert math.copysign(1.0, got) == math.copysign(1.0, ref)

    def test_non_positive_scale_rejected(self):
        for scale in (0.0, -1.0):
            with pytest.raises(FormulaError):
                fractional_violation(1.0, scale)
