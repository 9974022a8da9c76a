"""Archive-based evolutionary search with island migration.

Each island keeps a bounded archive of the best designs seen so far.
Parents are drawn by a power-law over archive rank (rank 1 = best), new
candidates are Gaussian mutations whose scale decays linearly over the
run, and full archives evict their worst member. With several islands, a
ring migration copies the local best to the next island at a fixed
interval.
"""
from __future__ import annotations

import numpy as np

from ..space import ParamSpace
from .base import ConfigurationError, Proposals, Warm

DEFAULTS = {
    "archive_capacity": 100,
    "pw_alpha": 3.0,
    "batch_size": 5,
    "gaussian_scale": 0.3,
    "gaussian_final_scale": 0.1,
    "decay_scale": True,
    "num_islands": 1,
    "migration_interval": 10,
    "migration_rate": 0.1,
}


class Archive:
    """Bounded elite store ordered best-first; worst member is evicted."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("archive_capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[tuple[float, np.ndarray]] = []

    def add(self, reward: float, u: np.ndarray) -> None:
        self.entries.append((reward, u.copy()))
        self.entries.sort(key=lambda e: -e[0])
        if len(self.entries) > self.capacity:
            self.entries.pop()

    def sample_parent(self, rng: np.random.Generator, pw_alpha: float) -> np.ndarray:
        ranks = np.arange(1, len(self.entries) + 1, dtype=float)
        probs = ranks ** (-pw_alpha)
        probs /= probs.sum()
        idx = int(rng.choice(len(self.entries), p=probs))
        return self.entries[idx][1]

    @property
    def best(self) -> tuple[float, np.ndarray]:
        return self.entries[0]


def mutation_scale(
    progress: float, start: float, final_fraction: float, decay: bool
) -> float:
    """Mutation sigma as a fraction of the box width at run progress in [0, 1]."""
    if not decay:
        return start
    frac = 1.0 + min(max(progress, 0.0), 1.0) * (final_fraction - 1.0)
    return start * frac


def run(
    space: ParamSpace, rng: np.random.Generator, opts: dict, warm: Warm, budget: int, warn
) -> Proposals:
    capacity = int(opts["archive_capacity"])
    pw_alpha = float(opts["pw_alpha"])
    batch_size = int(opts["batch_size"])
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    num_islands = int(opts["num_islands"])
    if num_islands < 1:
        raise ConfigurationError("num_islands must be >= 1")
    migration_interval = int(opts["migration_interval"])
    migration_rate = float(opts["migration_rate"])
    g_scale = float(opts["gaussian_scale"])
    g_final = float(opts["gaussian_final_scale"])
    decay = bool(opts["decay_scale"])
    dim = space.relaxed_dim

    islands = [Archive(capacity) for _ in range(num_islands)]
    # Warm-start designs seed island 0; the rest start from uniform samples.
    for u, reward in warm:
        if reward > -np.inf:
            islands[0].add(reward, np.clip(u, 0.0, 1.0))

    # Children are proposed one at a time: each parent is drawn from an
    # archive that already holds the previous child.
    spent = 0
    for island in islands:
        while not island.entries:
            u = rng.random(dim)
            reward = float((yield 0, u[None])[0])
            spent += 1
            if reward > -np.inf:
                island.add(reward, u)

    gen = 0
    while True:
        gen += 1
        progress = 1.0 - (budget - spent) / budget if budget else 1.0
        sigma = mutation_scale(progress, g_scale, g_final, decay)
        for island in islands:
            for _ in range(batch_size):
                parent = island.sample_parent(rng, pw_alpha)
                child = np.clip(
                    parent + rng.normal(0.0, sigma, size=dim), 0.0, 1.0
                )
                reward = float((yield gen, child[None])[0])
                spent += 1
                if reward > -np.inf:
                    island.add(reward, child)
        if num_islands > 1 and gen % migration_interval == 0:
            # Copy the top fraction of each archive to the next island.
            batches = []
            for island in islands:
                n_mig = max(1, int(migration_rate * len(island.entries)))
                batches.append(list(island.entries[:n_mig]))
            for i, batch in enumerate(batches):
                target = islands[(i + 1) % num_islands]
                for reward, u in batch:
                    target.add(reward, u)
