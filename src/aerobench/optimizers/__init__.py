"""Matched-budget optimizers over relaxed design spaces.

Every method consumes the same currency: one environment evaluation equals
one budget unit, including finite-difference stencils and warm-start
designs. Each method runs at one fixed configuration on every task. A
method module is its settings, `DEFAULTS` (exactly what its code reads), a
`check(space)` that raises `ConfigurationError` for a space it does not
apply to, and its proposal logic, `run(dim, rng, warm, budget, warn)`: a
generator that yields `(iteration, U)`, a `(k, dim)` batch of unit-cube
rows (`dim` is the space's `relaxed_dim`), and is sent back one reward per
row (maximization sense, -inf for an evaluator error). `OptimizerConfig` is
a method, a budget and a seed; its `check(space, task)` asks the method
about a task without running it. `run_with_budget` is the only evaluation
loop, and it names no method. It runs `check` before anything is evaluated,
seeds the RNG, charges warm-start designs at iteration 0, evaluates batches
until the budget is spent, spends budget a method leaves on uniform
samples, and returns the trajectory plus the resolved configuration that
reproduces it, with `DEFAULTS` as its `options`.
Warm-start designs, each yielded batch and the leftover samples each go to
the environment as one batch. Warm-start designs are projected by `clip`,
evaluated, and normalized once for the method, so their rows lie in [0, 1].
A method's module is imported the first time the method is checked or run,
so importing this package loads none, and only `bo` loads scipy.
"""
from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Sequence

from .. import __version__ as _harness_version
from ..problems.base import ProblemEnvironment
from ..problems.catalog import CATALOG_VERSION
from ..space import DesignPoint, ParamSpace
from .base import BudgetedObjective, ConfigurationError, Trajectory

# Method name -> its module, None until the first lookup imports it.
_METHODS = dict.fromkeys(("lbfgsb", "pso", "cmaes", "bo", "evolve"))


def method_names() -> list[str]:
    return sorted(_METHODS)


def _method(name: str):
    """The module of a known method, imported on its first lookup."""
    module = _METHODS[name]
    if module is None:
        module = _METHODS[name] = importlib.import_module(f".{name}", __name__)
    return module


@dataclass(frozen=True)
class OptimizerConfig:
    """One method's run; the method runs at its fixed `DEFAULTS`."""

    method: str
    budget: int
    seed: int

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; choose from {method_names()}"
            )
        for name in ("budget", "seed"):
            if not _is_int(value := getattr(self, name)):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        if self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        if not 0 <= self.seed < 2**128:
            raise ConfigurationError(f"seed {self.seed} is not a Philox key: need 0 <= seed < 2**128")

    def check(self, space: ParamSpace, task: str) -> None:
        """Raise ConfigurationError, naming `task` and the method, if the method refuses `space`."""
        try:
            _method(self.method).check(space)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{task}/{self.method}: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def run_with_budget(
    env: ProblemEnvironment,
    config: OptimizerConfig,
    warmstart: Sequence[DesignPoint] = (),
) -> Trajectory:
    """Run one method on one task under a hard evaluation budget."""
    space = env.space
    config.check(space, env.id)
    obj = BudgetedObjective(env, config.budget)
    module = _method(config.method)
    resolved = {
        "method": config.method,
        "budget": config.budget,
        "seed": config.seed,
        "task": env.id,
        "options": dict(module.DEFAULTS),
        "n_warmstart": len(warmstart),
        "catalog_version": CATALOG_VERSION,
        "harness_version": _harness_version,
    }
    rng = space.rng(config.seed)
    clipped = [space.clip(point) for point in warmstart[: config.budget]]
    warm_rewards = obj.evaluate_decoded(clipped, 0).tolist() if clipped else []
    warm = [(space.normalize(p), reward) for p, reward in zip(clipped, warm_rewards)]
    proposals = module.run(space.relaxed_dim, rng, warm, obj.remaining, obj.warnings.append)
    iteration, rewards = 0, None
    try:
        while obj.remaining:
            try:
                iteration, batch = proposals.send(rewards)
            except StopIteration:
                break
            rewards = obj.evaluate_rows(batch[: obj.remaining], iteration)
    finally:
        proposals.close()
    # A method that stops early leaves budget over; spend it on uniform
    # samples, drawn as one batch (the same values as one draw per row).
    if obj.remaining > 0:
        obj.evaluate_rows(rng.random((obj.remaining, space.relaxed_dim)), iteration)
    return Trajectory(
        records=tuple(obj.records),
        resolved_config=resolved,
        best_reward=obj.best_reward,
        best_design=obj.best_design,
        warnings=tuple(obj.warnings),
    )


__all__ = [
    "BudgetedObjective",
    "ConfigurationError",
    "OptimizerConfig",
    "Trajectory",
    "method_names",
    "run_with_budget",
]
