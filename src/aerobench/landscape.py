"""Deterministic smooth stand-in landscapes over the normalized unit cube.

Each metric is a seeded sum of anisotropic Gaussian bumps plus a linear trend,
squashed through a logistic so the metric stays inside a documented [lo, hi]
band. Lift-style metrics add a strictly positive linear term in the angle of
attack, so a lift target has exactly one trim alpha, solved in closed form.
Values and gradients are analytic, which gives finite-difference checks
an exact oracle.

A task reads several metrics of one design. :class:`FieldStack` stacks the
bump fields of a task's models and evaluates all of them in one fused numpy
pass, bit for bit what each model's own `at(u)` gives; an
:class:`AlphaFreeTable` holds those alpha-free values for one design.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    def seeded(cls, seed: int, dim: int) -> "BumpField":
        rng = np.random.Generator(np.random.Philox(key=seed))
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
    # A Python float, so metric values and the arithmetic on them stay off
    # numpy scalars; np.exp keeps the bits.
    if x >= 0:
        return 1.0 / (1.0 + float(np.exp(-x)))
    e = float(np.exp(x))
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

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """The gradient in u, which the alpha term does not depend on."""
        s = _sigmoid(self.field.value(u))
        return (self.hi - self.lo) * s * (1.0 - s) * self.field.gradient(u)


class FieldStack:
    """The bump fields of several metric models, evaluated in one pass.

    The bump centres and inverse widths of all models are stacked once, so
    a design costs one `z`, one row sum of `z*z` and one `exp` over every
    bump of every model. Each model then finishes with its own amplitude
    and trend dot products and `_sigmoid`. The per-row reductions and the
    dot products see the same operands in the same order as
    `BumpField.value`, so `at(u)` equals `[m.at(u) for m in models]` bit for
    bit.
    """

    def __init__(self, models: Sequence[MetricModel]):
        self.models = tuple(models)
        self._ids = [id(m) for m in self.models]
        fields = [m.field for m in self.models]
        self._centers = np.concatenate([f.centers for f in fields])
        self._inv_widths = np.concatenate([f.inv_widths for f in fields])
        ends = np.cumsum([len(f.amplitudes) for f in fields]).tolist()
        self._parts = [
            (slice(start, end), f.amplitudes, f.trend, f.bias, m.lo, m.hi - m.lo)
            for m, f, start, end in zip(self.models, fields, [0] + ends[:-1], ends)
        ]

    def at(self, u: np.ndarray) -> list[float]:
        """The alpha-free value of every model at u, in model order."""
        z = (u[None, :] - self._centers) * self._inv_widths
        e = np.exp(-(z * z).sum(axis=1))
        return [
            lo + span * _sigmoid(float(amplitudes @ e[part] + trend @ u + bias))
            for part, amplitudes, trend, bias, lo, span in self._parts
        ]

    def table(self, u: np.ndarray) -> "AlphaFreeTable":
        """Every model's alpha-free value at u, filled in one pass."""
        return AlphaFreeTable(u, dict(zip(self._ids, self.at(u))))


class AlphaFreeTable:
    """The alpha-free values `MetricModel.at(u)` of one design, by model.

    A table from `FieldStack.table` holds every model of the stack; a bare
    `AlphaFreeTable(u)` computes each model the first time it is read, so
    a reader that needs two models pays for two. `value(m, alpha)` adds the
    alpha term as `MetricModel.value` does, so the bits match either way.
    `u` is the design's unit-cube vector.
    """

    __slots__ = ("u", "_values")

    def __init__(self, u: np.ndarray, values: dict[int, float] | None = None):
        self.u = u
        self._values = {} if values is None else values

    def __getitem__(self, model: MetricModel) -> float:
        v = self._values.get(id(model))
        if v is None:
            v = self._values[id(model)] = model.at(self.u)
        return v

    def value(self, model: MetricModel, alpha: float = 0.0) -> float:
        return self[model] + model.alpha_slope * alpha

    def shifted(self, model: MetricModel, step: float) -> "AlphaFreeTable":
        """A copy in which `model`'s alpha-free value is moved by `step`."""
        return AlphaFreeTable(self.u, {**self._values, id(model): self[model] + step})


def metric_seed(task_id: str, metric: str) -> int:
    """Stable per-(task, metric) seed derived from the names only."""
    h = 2166136261
    for ch in f"{task_id}/{metric}".encode():
        h = (h ^ ch) * 16777619 % (1 << 32)
    return h
