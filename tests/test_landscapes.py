"""Stand-in landscape fields: determinism, smoothness, and gradients."""
import numpy as np
import pytest

from aerobench.landscape import BumpField, MetricModel, _sigmoid, metric_seed


class TestMetricSeed:
    def test_deterministic(self):
        assert metric_seed("task-a", "CL") == metric_seed("task-a", "CL")

    def test_distinguishes_task_and_metric(self):
        seeds = {
            metric_seed("task-a", "CL"),
            metric_seed("task-a", "CD"),
            metric_seed("task-b", "CL"),
        }
        assert len(seeds) == 3


class TestBumpField:
    def test_same_seed_same_values(self):
        a = BumpField.seeded(123, dim=5)
        b = BumpField.seeded(123, dim=5)
        u = np.linspace(0.1, 0.9, 5)
        assert a.value(u) == b.value(u)

    def test_gradient_matches_fd(self):
        field = BumpField.seeded(7, dim=4)
        rng = np.random.Generator(np.random.Philox(key=0))
        eps = 1e-6
        for _ in range(20):
            u = 0.05 + 0.9 * rng.random(4)
            grad = field.gradient(u)
            for i in range(4):
                up, um = u.copy(), u.copy()
                up[i] += eps
                um[i] -= eps
                fd = (field.value(up) - field.value(um)) / (2 * eps)
                assert grad[i] == pytest.approx(fd, abs=1e-6)


class TestMetricModel:
    def test_bounded_output(self):
        model = MetricModel.seeded(5, dim=6, lo=0.2, hi=1.8)
        rng = np.random.Generator(np.random.Philox(key=1))
        for _ in range(200):
            v = model.value(rng.random(6))
            assert 0.2 <= v <= 1.8

    def test_alpha_slope_shifts_value(self):
        model = MetricModel.seeded(5, dim=3, lo=0.0, hi=1.0, alpha_slope=0.05)
        u = np.full(3, 0.4)
        assert model.value(u, alpha=2.0) > model.value(u, alpha=0.0)

    @pytest.mark.parametrize("slope", [0.04, 0.05, 1e-4])
    def test_value_is_alpha_free_part_plus_linear_term_bit_for_bit(self, slope):
        # Bisection holds at(u) fixed and adds the alpha term itself; that is
        # only exact if value() sums in the same order.
        model = MetricModel.seeded(11, dim=9, lo=-0.05, hi=0.35, alpha_slope=slope)
        rng = np.random.Generator(np.random.Philox(key=4))
        for _ in range(50):
            u = rng.random(9)
            # 0, both ends of the bwb and transonic-range brackets, and a random alpha
            for a in (0.0, -5.0, 12.0, 2.0, float(rng.uniform(-5.0, 12.0))):
                v = model.value(u, a)
                assert v.hex() == (model.at(u) + model.alpha_slope * a).hex()
                s = _sigmoid(model.field.value(u))
                reference = model.lo + (model.hi - model.lo) * s + model.alpha_slope * a
                assert v.hex() == reference.hex()

    def test_gradient_matches_fd(self):
        model = MetricModel.seeded(9, dim=5, lo=0.01, hi=0.09)
        rng = np.random.Generator(np.random.Philox(key=2))
        eps = 1e-6
        for _ in range(20):
            u = 0.05 + 0.9 * rng.random(5)
            grad = model.gradient(u)
            for i in range(5):
                up, um = u.copy(), u.copy()
                up[i] += eps
                um[i] -= eps
                fd = (model.value(up, 1.0) - model.value(um, 1.0)) / (2 * eps)
                assert grad[i] == pytest.approx(fd, abs=1e-6)
