"""Archive-based evolutionary search.

One bounded archive keeps the best designs seen so far. Parents are drawn
by a power-law over archive rank (rank 1 = best), new candidates are
Gaussian mutations whose scale decays linearly over the run, and a full
archive evicts its worst member.
"""
from __future__ import annotations

import bisect
from functools import lru_cache

import numpy as np

from ..space import ParamSpace
from .base import Proposals, Warm

DEFAULTS = {
    "archive_capacity": 100,
    "pw_alpha": 3.0,
    "batch_size": 5,
    "gaussian_scale": 0.3,
    "gaussian_final_scale": 0.1,
}


def _neg_reward(entry: tuple[float, np.ndarray]) -> float:
    return -entry[0]


def _rank_probs(n: int, pw_alpha: float) -> np.ndarray:
    """Power-law probabilities of archive ranks 1..n, normalized."""
    probs = np.arange(1, n + 1, dtype=float) ** (-pw_alpha)
    probs /= probs.sum()
    return probs


@lru_cache(maxsize=256)
def _rank_cdf(n: int, pw_alpha: float) -> np.ndarray:
    """The CDF `Generator.choice(n, p=_rank_probs(n, pw_alpha))` draws from; read-only."""
    cdf = _rank_probs(n, pw_alpha).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


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
        # One uniform, searched as `rng.choice(n, p=_rank_probs(n, pw_alpha))` does, so the
        # pick and the generator's next state are the same.
        idx = int(_rank_cdf(len(self.entries), pw_alpha).searchsorted(rng.random(), side="right"))
        return self.entries[idx][1]


def mutation_scale(progress: float, start: float, final_fraction: float) -> float:
    """Mutation sigma as a fraction of the box width at run progress in [0, 1]."""
    frac = 1.0 + min(max(progress, 0.0), 1.0) * (final_fraction - 1.0)
    return start * frac


def check(space: ParamSpace) -> None:
    """Evolution applies to every space."""


def run(dim: int, rng: np.random.Generator, warm: Warm, budget: int, warn) -> Proposals:
    archive = Archive(DEFAULTS["archive_capacity"])
    for u, reward in warm:
        if reward > -np.inf:
            archive.add(reward, u)

    # Children are proposed one at a time: each parent is drawn from an
    # archive that already holds the previous child.
    spent = 0
    while not archive.entries:
        u = rng.random(dim)
        reward = float((yield 0, u[None])[0])
        spent += 1
        if reward > -np.inf:
            archive.add(reward, u)

    gen = 0
    while True:
        gen += 1
        progress = 1.0 - (budget - spent) / budget if budget else 1.0
        sigma = mutation_scale(progress, DEFAULTS["gaussian_scale"], DEFAULTS["gaussian_final_scale"])
        for _ in range(DEFAULTS["batch_size"]):
            parent = archive.sample_parent(rng, DEFAULTS["pw_alpha"])
            child = np.clip(parent + rng.normal(0.0, sigma, size=dim), 0.0, 1.0)
            reward = float((yield gen, child[None])[0])
            spent += 1
            if reward > -np.inf:
                archive.add(reward, child)
