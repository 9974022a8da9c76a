"""Box-constrained quasi-Newton search with finite-difference gradients.

Works on the relaxed unit cube. Gradients come from central finite
differences, so every line-search trial and every stencil point is charged
to the evaluation budget. The method restarts from fresh uniform points
until the budget runs out.
"""
from __future__ import annotations

import itertools

import numpy as np

from ..space import CATEGORICAL, ParamSpace
from .base import FD_EPS, ConfigurationError, Proposals, Warm, fd_gradient

DEFAULTS = {
    "memory": 10,
    "maxiter": 200,
    "restarts": 3,
    "gtol": 1e-6,
    "ftol": 1e-9,
    "armijo_c": 1e-4,
    "max_halvings": 20,
    "fd_eps": FD_EPS,
}


def check(space: ParamSpace) -> None:
    if all(v.kind == CATEGORICAL for v in space.variables):
        raise ConfigurationError(
            "gradient-based search is undefined on a purely categorical space"
        )


def _two_loop(grad: np.ndarray, s_hist: list, y_hist: list) -> np.ndarray:
    """Standard limited-memory two-loop recursion for H * grad."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y), a in zip(zip(s_hist, y_hist), reversed(alphas)):
        rho = 1.0 / float(y @ s)
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def run(dim: int, rng: np.random.Generator, warm: Warm, budget: int, warn) -> Proposals:
    # Warm starts double as extra restart points (already evaluated/charged).
    starts: list[np.ndarray] = [u for u, _ in warm]
    while len(starts) < DEFAULTS["restarts"]:
        starts.append(rng.random(dim))

    # The search minimizes f = -reward; an error row reads f = inf, so the
    # line search backs off, and a non-finite FD stencil abandons the restart.
    for it in itertools.count():
        x = starts[it] if it < len(starts) else rng.random(dim)
        fx = -float((yield it, x[None])[0])
        if not np.isfinite(fx):
            continue
        grad = yield from fd_gradient(x, it, DEFAULTS["fd_eps"])
        if grad is None:
            continue
        grad = -grad
        s_hist: list[np.ndarray] = []
        y_hist: list[np.ndarray] = []
        for _ in range(DEFAULTS["maxiter"]):
            # Projected-gradient stationarity test on the box.
            proj = x - np.clip(x - grad, 0.0, 1.0)
            if np.max(np.abs(proj)) < DEFAULTS["gtol"]:
                break
            direction = -_two_loop(grad, s_hist, y_hist)
            if float(direction @ grad) >= 0.0:
                direction = -grad
                s_hist.clear()
                y_hist.clear()
            # Backtracking Armijo line search on the projected step.
            step = 1.0
            x_new, f_new = None, None
            for _ in range(DEFAULTS["max_halvings"]):
                cand = np.clip(x + step * direction, 0.0, 1.0)
                f_cand = -float((yield it, cand[None])[0])
                decrease = DEFAULTS["armijo_c"] * float(grad @ (cand - x))
                if np.isfinite(f_cand) and f_cand <= fx + decrease:
                    x_new, f_new = cand, f_cand
                    break
                step *= 0.5
            if x_new is None:
                break
            grad_new = yield from fd_gradient(x_new, it, DEFAULTS["fd_eps"])
            if grad_new is None:
                break
            grad_new = -grad_new
            s = x_new - x
            y = grad_new - grad
            if float(s @ y) > 1e-12:
                s_hist.append(s)
                y_hist.append(y)
                if len(s_hist) > DEFAULTS["memory"]:
                    s_hist.pop(0)
                    y_hist.pop(0)
            rel_drop = (fx - f_new) / max(abs(fx), abs(f_new), 1.0)
            x, fx, grad = x_new, f_new, grad_new
            if rel_drop < DEFAULTS["ftol"]:
                break
