"""Problem environments: operating points, constraints, and evaluation."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..space import DesignPoint, ParamSpace
from .formulas import FormulaError, penalized_reward

MAXIMIZE = "maximize"
MINIMIZE = "minimize"


class EvaluationError(RuntimeError):
    """An evaluator failed to produce metrics (crash, timeout, bad reply)."""


@dataclass(frozen=True)
class OperatingPoint:
    """One flight/flow condition a design is evaluated at."""

    alpha: float | None = None
    mach: float | None = None
    reynolds: float | None = None
    altitude: float | None = None
    cl_target: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("operating-point weight must be >= 0")
        if all(
            v is None
            for v in (self.alpha, self.mach, self.reynolds, self.altitude, self.cl_target)
        ):
            raise ValueError("operating point must set at least one condition")

    def to_json(self) -> dict:
        out: dict[str, Any] = {"weight": self.weight}
        for key in ("alpha", "mach", "reynolds", "altitude", "cl_target"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass(frozen=True)
class EvalContext:
    """Everything a constraint rule may inspect; `row` is the design's unit-cube row."""

    per_point: tuple[Mapping[str, float], ...]
    metrics: Mapping[str, float]
    row: np.ndarray


@dataclass(frozen=True)
class ConstraintSpec:
    name: str
    kind: str  # inequality, equality, box
    violation: Callable[[EvalContext], float]

    def __post_init__(self) -> None:
        if self.kind not in ("inequality", "equality", "box"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")


@dataclass(frozen=True)
class EvalResult:
    metrics: Mapping[str, float]
    per_point: tuple[Mapping[str, float], ...]
    violations: Mapping[str, float]
    reward: float | None
    feasible: bool
    error: str | None = None

    @classmethod
    def failure(cls, error: str, per_point: tuple = ()) -> "EvalResult":
        """An evaluation that produced no reward, for the reason `error`."""
        return cls({}, per_point, {}, reward=None, feasible=False, error=error)


@dataclass(frozen=True)
class ProblemEnvironment:
    """One benchmark task: space + operating points + objective + constraints.

    The evaluator has one hook, called once per batch: `batch_metrics(points,
    ops)` returns per design, in order, its metric maps at all of `ops` or
    the `EvaluationError` it failed with; an `EvaluationError` raised fails
    every design of the batch. `evaluate_batch(points)` validates and
    normalizes designs from outside (`evaluate`, external callers); the
    driver's designs are valid already, decoded by `ParamSpace.decode` or
    projected by `ParamSpace.clip`, and go with their rows to
    `evaluate_decoded`. `aggregate(per_point, ops)` turns the metric maps
    into the raw objective (in the task's native sense) plus aggregate
    metrics. The scalarized reward is always in maximization sense:
    `_score` negates a minimization task's raw objective before the penalty
    is subtracted, which rounds to the same bits as negating after it.
    """

    id: str
    space: ParamSpace
    points: tuple[OperatingPoint, ...]
    constraints: tuple[ConstraintSpec, ...]
    sense: str
    penalty_weight: float
    evaluator: Any
    aggregate: Callable[
        [Sequence[Mapping[str, float]], Sequence[OperatingPoint]],
        tuple[float, dict[str, float]],
    ]
    landscape_value: Callable[[np.ndarray], float] | None = None
    landscape_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    diagnostics_profile: Mapping[str, Any] = field(default_factory=dict)
    objective_label: str = ""

    def __post_init__(self) -> None:
        if self.penalty_weight < 0:
            raise ValueError("penalty weight must be >= 0")
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"unknown sense {self.sense!r}")
        if not self.points:
            raise ValueError("environment needs at least one operating point")

    def evaluate(self, point: DesignPoint) -> EvalResult:
        return self.evaluate_batch([point])[0]

    def evaluate_batch(self, points: Sequence[DesignPoint]) -> list[EvalResult]:
        """Validate designs from outside the driver, then evaluate them in order.

        This is the one validation of such a design; the evaluator maps it
        without re-checking it, and constraints read its normalized row.
        """
        for point in points:
            self.space.validate(point)
        return self.evaluate_decoded(points, np.array([self.space.normalize(p) for p in points]))

    def evaluate_decoded(self, points: Sequence[DesignPoint], rows: np.ndarray) -> list[EvalResult]:
        """Evaluate valid designs, whose unit-cube rows are `rows`, with one evaluator call."""
        try:
            entries = self.evaluator.batch_metrics(points, self.points)
        except EvaluationError as exc:
            entries = [exc] * len(points)
        return [self._score(row, entry) for row, entry in zip(rows, entries)]

    def _score(self, row: np.ndarray, entry: Sequence | EvaluationError) -> EvalResult:
        """Aggregate, constraints and reward of one design's metric maps."""
        if isinstance(entry, EvaluationError):
            return EvalResult.failure(str(entry))
        per_point = tuple(entry)
        try:
            raw, agg_metrics = self.aggregate(per_point, self.points)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            # Evaluators may answer with an incomplete metrics map, with a
            # value that is no number, or with one (a zero drag) the
            # aggregate cannot divide by; that is an evaluation failure, not
            # a harness crash.
            return self._unusable(per_point, repr(exc))
        ctx = EvalContext(per_point, agg_metrics, row)
        violations: dict[str, float] = {}
        for spec in self.constraints:
            try:
                violations[spec.name] = float(spec.violation(ctx))
            except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
                # A metric read only by a constraint may be missing, no number or zero too.
                return self._unusable(per_point, f"constraint {spec.name}: {exc!r}")
        try:
            reward = penalized_reward(
                raw if self.sense == MAXIMIZE else -raw, violations, self.penalty_weight
            )
        except FormulaError as exc:
            # Metrics slightly out of range (a few ulp from an external
            # solver) put a violation outside [0, 1]; that is an error row too.
            return self._unusable(per_point, str(exc))
        if not np.isfinite(reward):
            return self._unusable(per_point, f"non-finite reward {reward}")
        metrics = dict(agg_metrics)
        metrics.setdefault("objective", raw)
        return EvalResult(
            metrics=metrics,
            per_point=per_point,
            violations=violations,
            reward=float(reward),
            feasible=not any(violations.values()),
        )

    def _unusable(self, per_point: tuple, reason: str) -> EvalResult:
        return EvalResult.failure(f"evaluator metrics unusable for {self.id}: {reason}", per_point)

    def close(self) -> None:
        closer = getattr(self.evaluator, "close", None)
        if closer is not None:
            closer()

    def with_evaluator(self, evaluator: Any) -> "ProblemEnvironment":
        return replace(self, evaluator=evaluator)

    def describe(self) -> dict:
        """Catalog entry: structured metadata without the evaluator."""
        kinds = sorted({v.kind for v in self.space.variables})
        return {
            "id": self.id,
            "objective": self.objective_label,
            "sense": self.sense,
            "penalty_weight": self.penalty_weight,
            "n_operating_points": len(self.points),
            "n_constraints": len(self.constraints),
            "n_variables": len(self.space.variables),
            "relaxed_dim": self.space.relaxed_dim,
            "variable_kinds": kinds,
            "tags": list(self.diagnostics_profile.get("tags", [])),
            "space": self.space.to_json(),
            "operating_points": [op.to_json() for op in self.points],
            "constraints": [{"name": c.name, "kind": c.kind} for c in self.constraints],
        }


class _FunctionEvaluator:
    def __init__(self, space: ParamSpace, fn: Callable[[np.ndarray], float]):
        self._space = space
        self._fn = fn

    def batch_metrics(self, points: Sequence[DesignPoint], ops: Sequence[OperatingPoint]) -> list:
        return [[{"value": float(self._fn(self._space.normalize(p)))} for _ in ops] for p in points]


def function_environment(
    space: ParamSpace,
    fn: Callable[[np.ndarray], float],
    sense: str = MINIMIZE,
    env_id: str = "function",
) -> ProblemEnvironment:
    """Wrap a plain function of the unit-cube vector as an environment.

    Handy for benchmarking optimizers on closed-form test functions with
    the same budget accounting as real tasks.
    """

    def aggregate(per_point, ops):
        value = per_point[0]["value"]
        return value, {"value": value}

    return ProblemEnvironment(
        id=env_id,
        space=space,
        points=(OperatingPoint(alpha=0.0),),
        constraints=(),
        sense=sense,
        penalty_weight=0.0,
        evaluator=_FunctionEvaluator(space, fn),
        aggregate=aggregate,
        objective_label="function value",
    )
