"""Objective/constraint building blocks shared by the task library."""
from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np


class FormulaError(ValueError):
    pass


def penalized_reward(raw: float, violations: Mapping[str, float], lam: float, sense: str = "maximize") -> float:
    """Penalty scalarization: raw -/+ lam * sum of fractional violations."""
    if lam < 0:
        raise FormulaError("penalty weight must be >= 0")
    total = 0.0
    for name, v in violations.items():
        if not (0.0 <= v <= 1.0):
            raise FormulaError(f"violation {name!r}={v} outside [0, 1]")
        total += v
    if sense == "maximize":
        return raw - lam * total
    if sense == "minimize":
        return raw + lam * total
    raise FormulaError(f"unknown sense {sense!r}")


def reynolds_schedule(cl: float) -> float:
    """Fixed-lift polar Reynolds number for a target lift coefficient."""
    if cl <= 0:
        raise FormulaError("cl must be positive")
    return 500_000.0 * (cl / 1.25) ** -0.5


def weighted_multipoint(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted mean across operating points (weights normalized internally)."""
    if len(values) != len(weights):
        raise FormulaError("values and weights must have equal length")
    if len(values) == 0:
        raise FormulaError("need at least one operating point")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise FormulaError("weights must be nonnegative")
    total = w.sum()
    if total == 0:
        raise FormulaError("weights must not all be zero")
    return float(np.asarray(values, dtype=float) @ w / total)


def robust_min(values: Sequence[float]) -> float:
    """Worst case across operating points (to be maximized)."""
    if len(values) == 0:
        raise FormulaError("need at least one value")
    return float(min(values))


def bisect_alpha_to_cl(
    cl_fn: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    iters: int = 8,
) -> tuple[float, bool]:
    """Solve cl_fn(alpha) = target by bisection with exactly `iters` halvings.

    Returns (alpha, bracketed). If the target is not bracketed by [lo, hi],
    the endpoint whose CL is closer to the target is returned with
    bracketed=False; unreachable targets become a constraint violation
    upstream rather than an error.
    """
    if lo >= hi:
        raise FormulaError("need lo < hi")
    if iters < 1:
        raise FormulaError("need iters >= 1")
    g_lo = cl_fn(lo) - target
    g_hi = cl_fn(hi) - target
    if g_lo == 0.0:
        return lo, True
    if g_hi == 0.0:
        return hi, True
    if (g_lo > 0) == (g_hi > 0):
        return (lo, False) if abs(g_lo) <= abs(g_hi) else (hi, False)
    a, b, g_a = lo, hi, g_lo
    for _ in range(iters):
        mid = 0.5 * (a + b)
        g_mid = cl_fn(mid) - target
        if g_mid == 0.0:
            return mid, True
        if (g_mid > 0) == (g_a > 0):
            a, g_a = mid, g_mid
        else:
            b = mid
    return 0.5 * (a + b), True


def integrated_drag(
    cells: Sequence[tuple[float, float, float, float]], s_ref: float
) -> float:
    """Pressure + streamwise-friction drag integrated over surface cells.

    Each cell is (cp, cfx, area, nx); the result is normalized by the
    planform-projected reference area.
    """
    if s_ref <= 0:
        raise FormulaError("s_ref must be positive")
    arr = np.asarray(cells, dtype=float)
    if arr.size == 0:
        return 0.0
    if not np.all(np.isfinite(arr)):
        raise FormulaError("cell entries must be finite")
    cp, cfx, area, nx = arr.T
    return float(np.sum(cp * area * nx + cfx * area) / s_ref)


CAR_Q_INF_PA = 1000.0
CAR_A_REF_M2 = 2.37


def car_drag_coefficient(f_pressure: float, f_shear: float) -> float:
    """Drag coefficient from pressure and shear force components."""
    if not (np.isfinite(f_pressure) and np.isfinite(f_shear)):
        raise FormulaError("forces must be finite")
    return (f_pressure + f_shear) / (CAR_Q_INF_PA * CAR_A_REF_M2)


def pareto_front(points: Sequence[Sequence[float]], senses: Sequence[str]) -> list[int]:
    """Indices of non-dominated points, in stable input order.

    `senses` gives "maximize" or "minimize" per axis.
    """
    if len(points) == 0:
        raise FormulaError("empty input")
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(senses):
        raise FormulaError("points must share the senses' dimensionality")
    signs = np.array([1.0 if s == "maximize" else -1.0 for s in senses])
    vals = arr * signs  # larger is better on every axis
    keep = []
    for i in range(len(vals)):
        ge = np.all(vals >= vals[i], axis=1)
        gt = np.any(vals > vals[i], axis=1)
        if not np.any(ge & gt):
            keep.append(i)
    return keep


def wiggliness(weight_rows: Sequence[Sequence[float]]) -> float:
    """Sum of squared second differences over each weight sequence."""
    total = 0.0
    for row in weight_rows:
        d2 = np.diff(np.asarray(row, dtype=float), n=2)
        total += float(np.sum(d2 * d2))
    return total


def fractional_violation(excess: float, scale: float) -> float:
    """Normalized violation: 0 when satisfied, 1 at complete failure."""
    if scale <= 0:
        raise FormulaError("scale must be positive")
    return min(max(float(excess / scale), 0.0), 1.0)
