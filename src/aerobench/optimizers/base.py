"""Shared run machinery: budget accounting, trajectories, FD gradients."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from ..problems.base import ProblemEnvironment
from ..space import DesignPoint

FD_EPS = 1e-4

# A method's `run` yields (iteration, U) batches of unit-cube rows and is sent
# one reward per row. Warm-start designs arrive as (u, reward) pairs, each u
# the normalized row of a design `ParamSpace.clip` made valid, so it already
# lies in [0, 1] and a method need not clip it.
Proposals = Generator[tuple[int, np.ndarray], np.ndarray, None]
Warm = list[tuple[np.ndarray, float]]


class ConfigurationError(ValueError):
    """Invalid optimizer configuration or method/space incompatibility."""


@dataclass(frozen=True)
class EvalRecord:
    iteration: int
    design_id: str
    reward: float | None
    best_so_far: float | None
    feasible: bool
    wall_ms: float
    error: str | None = None


@dataclass(frozen=True)
class Trajectory:
    records: tuple[EvalRecord, ...]
    resolved_config: dict
    best_reward: float | None
    best_design: DesignPoint | None
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.records)


class BudgetedObjective:
    """Records every environment evaluation and keeps the running best.

    Rewards are in maximization sense. An evaluation with an evaluator error
    is recorded with no reward and reads -inf to the caller; it still
    consumes budget. The caller keeps within `remaining`, and
    `OptimizerConfig` owns the rule that a budget is at least 1.

    Each batch goes to the environment as one unit and is recorded in row
    order, so design ids, the running best and the budget are what
    one-at-a-time evaluation gives. Each record copies its reward, error
    and `wall_ms` from the environment's result. `evaluate_rows` decodes
    unit-cube rows once; `evaluate_decoded` takes valid designs (the
    driver's clipped warm-start designs), so neither is validated.
    """

    def __init__(self, env: ProblemEnvironment, budget: int):
        self.env = env
        self.budget = budget
        self.records: list[EvalRecord] = []
        self.warnings: list[str] = []
        self.best_reward: float | None = None
        self.best_design: DesignPoint | None = None

    @property
    def remaining(self) -> int:
        return self.budget - len(self.records)

    def evaluate_rows(self, U: np.ndarray, iteration: int) -> np.ndarray:
        """Evaluate unit-cube rows (clipped to the cube) as one batch."""
        return self.evaluate_decoded(self.env.space.decode(U), iteration)

    def evaluate_decoded(self, points: Sequence[DesignPoint], iteration: int) -> np.ndarray:
        """Evaluate valid designs; one reward each, -inf on error."""
        results = self.env.evaluate_decoded(points)
        rewards = np.empty(len(points))
        for i, (point, result) in enumerate(zip(points, results)):
            design_id = f"eval{len(self.records):06d}"
            if result.error is None:
                if self.best_reward is None or result.reward > self.best_reward:
                    self.best_reward = result.reward
                    self.best_design = DesignPoint(point.values, name=design_id)
            self.records.append(
                EvalRecord(
                    iteration=iteration,
                    design_id=design_id,
                    reward=result.reward,
                    best_so_far=self.best_reward,
                    feasible=result.feasible,
                    wall_ms=result.wall_ms,
                    error=result.error,
                )
            )
            rewards[i] = -np.inf if result.reward is None else result.reward
        return rewards


def fd_gradient(
    x: np.ndarray, iteration: int, eps: float = FD_EPS
) -> Generator[tuple[int, np.ndarray], np.ndarray, np.ndarray | None]:
    """Central finite differences on the unit cube, as one batch of 2d rows.

    A sub-generator for a method's `yield from`: it yields the stencil
    (x + eps e_i, then x - eps e_i, for each coordinate i in turn) and
    returns the gradient of the values sent back for it, or None when any
    of them is non-finite. Stencil points are clamped per coordinate so
    they stay inside [0, 1]; the divisor uses the actual clamped spread.
    """
    x = np.asarray(x, dtype=float)
    hi = np.minimum(x + eps, 1.0)
    lo = np.maximum(x - eps, 0.0)
    idx = np.arange(len(x))
    stencil = np.repeat(x[None, :], 2 * len(x), axis=0)
    stencil[2 * idx, idx] = hi
    stencil[2 * idx + 1, idx] = lo
    values = yield iteration, stencil
    if not np.all(np.isfinite(values)):
        return None
    return (values[0::2] - values[1::2]) / (hi - lo)
