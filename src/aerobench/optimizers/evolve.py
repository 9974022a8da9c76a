"""Archive-based evolutionary search with island migration.

Each island keeps a bounded archive of the best designs seen so far.
Parents are drawn by a power-law over archive rank (rank 1 = best), new
candidates are Gaussian mutations whose scale decays linearly over the
run, and full archives evict their worst member. With several islands, a
ring migration copies the local best to the next island at a fixed
interval.
"""
from __future__ import annotations

import bisect
from functools import lru_cache

import numpy as np

from ..space import ParamSpace
from .base import Proposals, Warm, check_at_least

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


def _neg_reward(entry: tuple[float, np.ndarray]) -> float:
    return -entry[0]


@lru_cache(maxsize=256)
def _rank_probs(n: int, pw_alpha: float) -> np.ndarray:
    """Power-law probabilities of archive ranks 1..n, normalized; read-only."""
    probs = np.arange(1, n + 1, dtype=float) ** (-pw_alpha)
    probs /= probs.sum()
    probs.flags.writeable = False
    return probs


class Archive:
    """Bounded elite store ordered best-first; worst member is evicted."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: list[tuple[float, np.ndarray]] = []

    def add(self, reward: float, u: np.ndarray) -> None:
        # A right insert: equal rewards stay in arrival order.
        bisect.insort(self.entries, (reward, u.copy()), key=_neg_reward)
        if len(self.entries) > self.capacity:
            self.entries.pop()

    def sample_parent(self, rng: np.random.Generator, pw_alpha: float) -> np.ndarray:
        idx = int(rng.choice(len(self.entries), p=_rank_probs(len(self.entries), pw_alpha)))
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


def check(opts: dict, space: ParamSpace) -> None:
    check_at_least(opts, archive_capacity=1, batch_size=1, num_islands=1, migration_interval=1)
    check_at_least(opts, gaussian_scale=0, gaussian_final_scale=0)


def run(dim: int, rng: np.random.Generator, opts: dict, warm: Warm, budget: int, warn) -> Proposals:
    num_islands = opts["num_islands"]
    g_scale, g_final = opts["gaussian_scale"], opts["gaussian_final_scale"]
    islands = [Archive(opts["archive_capacity"]) for _ in range(num_islands)]
    # Warm-start designs seed island 0; the rest start from uniform samples.
    for u, reward in warm:
        if reward > -np.inf:
            islands[0].add(reward, u)

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
        sigma = mutation_scale(progress, g_scale, g_final, opts["decay_scale"])
        for island in islands:
            for _ in range(opts["batch_size"]):
                parent = island.sample_parent(rng, opts["pw_alpha"])
                child = np.clip(
                    parent + rng.normal(0.0, sigma, size=dim), 0.0, 1.0
                )
                reward = float((yield gen, child[None])[0])
                spent += 1
                if reward > -np.inf:
                    island.add(reward, child)
        if num_islands > 1 and gen % opts["migration_interval"] == 0:
            # Copy the top fraction of each archive to the next island.
            batches = []
            for island in islands:
                n_mig = max(1, int(opts["migration_rate"] * len(island.entries)))
                batches.append(list(island.entries[:n_mig]))
            for i, batch in enumerate(batches):
                target = islands[(i + 1) % num_islands]
                for reward, u in batch:
                    target.add(reward, u)
