"""Particle-swarm search with linearly scheduled coefficients.

Inertia decays while the social pull grows over the run: early iterations
explore, late iterations contract onto the best-known region. Personal and
global bests are committed only after the whole swarm has been evaluated at
an iteration, so update order inside a sweep does not matter.
"""
from __future__ import annotations

import numpy as np

from ..space import ParamSpace
from .base import Proposals, Warm

DEFAULTS = {
    "swarm_size": 20,
    "inertia_start": 0.8,
    "inertia_end": 0.2,
    "cognitive_start": 1.5,
    "cognitive_end": 0.5,
    "social_start": 0.2,
    "social_end": 3.0,
    "velocity_init_scale": 0.1,
}


def pso_coefficients(t: int, total: int) -> tuple[float, float, float]:
    """(inertia, cognitive, social) at iteration t of a run with `total` steps."""
    frac = t / total if total > 0 else 0.0
    # Convex-combination form keeps the endpoints and midpoint exact.
    w = (1.0 - frac) * DEFAULTS["inertia_start"] + frac * DEFAULTS["inertia_end"]
    c1 = (1.0 - frac) * DEFAULTS["cognitive_start"] + frac * DEFAULTS["cognitive_end"]
    c2 = (1.0 - frac) * DEFAULTS["social_start"] + frac * DEFAULTS["social_end"]
    return float(w), float(c1), float(c2)


def check(space: ParamSpace) -> None:
    """PSO applies to every space."""


def run(dim: int, rng: np.random.Generator, warm: Warm, budget: int, warn) -> Proposals:
    n, v_scale = DEFAULTS["swarm_size"], DEFAULTS["velocity_init_scale"]
    pos = rng.random((n, dim))
    # Warm-start designs replace the first initial particles.
    for i, (u, _) in enumerate(warm[:n]):
        pos[i] = u
    vel = rng.uniform(-v_scale, v_scale, size=(n, dim))

    # One initial sweep plus T update sweeps; run_with_budget spends the rest.
    total_iters = max(budget // n - 1, 0)

    pbest = pos.copy()
    pbest_val = yield 0, pos
    k = int(np.argmax(pbest_val))
    gbest_val, gbest = pbest_val[k], pos[k].copy()

    for t in range(1, total_iters + 1):
        # Sweep 1 uses the start coefficients, the final sweep the end ones.
        w, c1, c2 = pso_coefficients(t - 1, total_iters - 1)
        r1 = rng.random((n, dim))
        r2 = rng.random((n, dim))
        vel = w * vel + c1 * r1 * (pbest - pos) + c2 * r2 * (gbest - pos)
        pos = np.clip(pos + vel, 0.0, 1.0)
        vals = yield t, pos
        # Synchronous best updates after the full sweep.
        improved = vals > pbest_val
        pbest[improved] = pos[improved]
        pbest_val[improved] = vals[improved]
        k = int(np.argmax(pbest_val))
        if pbest_val[k] > gbest_val:
            gbest_val, gbest = pbest_val[k], pbest[k].copy()
