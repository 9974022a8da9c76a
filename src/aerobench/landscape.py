"""Deterministic smooth stand-in landscapes over the normalized unit cube.

Each metric is a seeded sum of anisotropic Gaussian bumps plus a linear trend,
squashed through a logistic so the metric stays inside a documented [lo, hi]
band. Lift-style metrics add a strictly positive linear term in the angle of
attack, which guarantees monotonicity wherever an alpha sweep or bisection is
used. Values and gradients are analytic, which gives finite-difference checks
an exact oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BumpField:
    """Sum of Gaussian bumps plus a linear trend on [0, 1]^dim."""

    centers: np.ndarray  # (n_bumps, dim)
    inv_widths: np.ndarray  # (n_bumps, dim), 1/w per axis
    amplitudes: np.ndarray  # (n_bumps,)
    trend: np.ndarray  # (dim,)
    bias: float

    @classmethod
    def seeded(cls, seed: int, dim: int, n_bumps: int | None = None) -> "BumpField":
        rng = np.random.Generator(np.random.Philox(key=seed))
        if n_bumps is None:
            n_bumps = int(rng.integers(5, 21))
        centers = rng.random((n_bumps, dim))
        widths = 0.08 + 0.35 * rng.random((n_bumps, dim))
        amplitudes = rng.uniform(-1.0, 1.0, n_bumps)
        trend = rng.uniform(-0.6, 0.6, dim)
        bias = float(rng.uniform(-0.3, 0.3))
        return cls(
            centers=centers,
            inv_widths=1.0 / widths,
            amplitudes=amplitudes,
            trend=trend,
            bias=bias,
        )

    def value(self, u: np.ndarray) -> float:
        z = (u[None, :] - self.centers) * self.inv_widths
        bumps = self.amplitudes @ np.exp(-(z * z).sum(axis=1))
        return float(bumps + self.trend @ u + self.bias)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        z = (u[None, :] - self.centers) * self.inv_widths
        e = self.amplitudes * np.exp(-np.sum(z * z, axis=1))
        grad = -2.0 * (e[:, None] * z * self.inv_widths).sum(axis=0)
        return grad + self.trend


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class MetricModel:
    """Bounded smooth metric: lo + (hi - lo) * sigmoid(field(u)) [+ k * alpha]."""

    field: BumpField
    lo: float
    hi: float
    alpha_slope: float = 0.0  # per degree; > 0 makes the metric increase with alpha

    @classmethod
    def seeded(
        cls,
        seed: int,
        dim: int,
        lo: float,
        hi: float,
        alpha_slope: float = 0.0,
    ) -> "MetricModel":
        return cls(field=BumpField.seeded(seed, dim), lo=lo, hi=hi, alpha_slope=alpha_slope)

    def at(self, u: np.ndarray) -> float:
        """The alpha-free part, lo + (hi - lo) * sigmoid(field(u))."""
        return self.lo + (self.hi - self.lo) * _sigmoid(self.field.value(u))

    def value(self, u: np.ndarray, alpha: float = 0.0) -> float:
        # The same left-to-right sum as the docstring formula, so callers that
        # hold at(u) fixed over an alpha sweep get identical bits.
        return self.at(u) + self.alpha_slope * alpha

    def gradient(self, u: np.ndarray, alpha: float = 0.0) -> np.ndarray:
        s = _sigmoid(self.field.value(u))
        return (self.hi - self.lo) * s * (1.0 - s) * self.field.gradient(u)


def metric_seed(task_id: str, metric: str) -> int:
    """Stable per-(task, metric) seed derived from the names only."""
    h = 2166136261
    for ch in f"{task_id}/{metric}".encode():
        h = (h ^ ch) * 16777619 % (1 << 32)
    return h
