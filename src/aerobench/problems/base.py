"""Problem environments: operating points, constraints, and evaluation."""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..space import DesignPoint, ParamSpace, as_number
from .formulas import FormulaError, penalized_reward

MAXIMIZE = "maximize"
MINIMIZE = "minimize"


class EvaluationError(RuntimeError):
    """An evaluator failed to produce metrics (crash, timeout, bad reply)."""


def non_number(metrics: Mapping) -> str | None:
    """The first metric in `metrics` that is not a number (`as_number`), worded as an error; None if none."""
    # A float skips `as_number`, which costs several times as much.
    for name, value in metrics.items():
        if type(value) is not float and as_number(value) is None:
            return f"metric {name!r} is not a number: {value!r}"


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
    """Everything a constraint rule may inspect: what the evaluator reported, and its aggregate."""

    per_point: tuple[Mapping[str, float], ...]
    metrics: Mapping[str, float]


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
    wall_ms: float = 0.0

    @classmethod
    def failure(cls, error: str, per_point: tuple = (), wall_ms: float = 0.0) -> "EvalResult":
        """An evaluation that produced no reward, for the reason `error`."""
        return cls({}, per_point, {}, reward=None, feasible=False, error=error, wall_ms=wall_ms)


@dataclass(frozen=True)
class ProblemEnvironment:
    """One benchmark task: space + operating points + objective + constraints.

    The evaluator has one hook, called once per batch: `batch_metrics(points,
    ops)`. `evaluate_decoded` alone reads its answer, by one rule for any
    evaluator: per design, in order, the `EvaluationError` it failed with or a
    list of one mapping of numbers (`as_number`) per operating point, and one
    wall time in `reply_ms` if the evaluator has it (`EvalResult.wall_ms`,
    else 0.0). A design that breaks the rule is an error row naming the
    problem; a wrong count, or an `EvaluationError` raised, fails the whole
    batch. `evaluate_batch(points)` validates designs from outside
    (`evaluate`, external callers); the driver's designs are valid already,
    decoded by `ParamSpace.decode` or projected by `ParamSpace.clip`, and go
    straight to `evaluate_decoded`. `aggregate(per_point, ops)`
    turns the metric maps into the raw objective (in the task's native sense)
    plus aggregate metrics. The scalarized reward is always in maximization
    sense: `_score` negates a minimization task's raw objective before the
    penalty is subtracted, which rounds to the same bits as negating after it.
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
        without re-checking it.
        """
        for point in points:
            self.space.validate(point)
        return self.evaluate_decoded(points)

    def evaluate_decoded(self, points: Sequence[DesignPoint]) -> list[EvalResult]:
        """Evaluate valid designs with one evaluator call."""
        n = len(points)
        try:
            entries = self.evaluator.batch_metrics(points, self.points)
        except EvaluationError as exc:
            return [EvalResult.failure(str(exc)) for _ in points]
        wall = self.evaluator.reply_ms if hasattr(self.evaluator, "reply_ms") else [0.0] * n
        if len(entries) != n or len(wall) != n:  # no answer can be matched to its design
            reason = f"{len(entries)} answers and {len(wall)} wall times for {n} designs"
            return [self._unusable((), reason, 0.0) for _ in points]
        return [self._score(entry, ms) for entry, ms in zip(entries, wall)]

    def _score(self, entry, wall_ms: float) -> EvalResult:
        """Aggregate, constraints and reward of one design's answer, if it keeps the rule."""
        if isinstance(entry, EvaluationError):
            return EvalResult.failure(str(entry), wall_ms=wall_ms)
        if misfit := self._misfit(entry):
            return self._unusable((), misfit, wall_ms)
        per_point = tuple(entry)
        try:
            raw, agg_metrics = self.aggregate(per_point, self.points)
        except (KeyError, ArithmeticError) as exc:
            # A missing metric, or a zero (a drag) the aggregate divides by, is an error row.
            return self._unusable(per_point, repr(exc), wall_ms)
        ctx = EvalContext(per_point, agg_metrics)
        violations: dict[str, float] = {}
        for spec in self.constraints:
            try:
                violations[spec.name] = float(spec.violation(ctx))
            except (KeyError, ArithmeticError) as exc:
                # A metric read only by a constraint may be missing or zero too.
                return self._unusable(per_point, f"constraint {spec.name}: {exc!r}", wall_ms)
        try:
            reward = penalized_reward(
                raw if self.sense == MAXIMIZE else -raw, violations, self.penalty_weight
            )
        except FormulaError as exc:
            # Metrics a few ulp out of range (an external solver) put a violation outside [0, 1].
            return self._unusable(per_point, str(exc), wall_ms)
        if not np.isfinite(reward):
            return self._unusable(per_point, f"non-finite reward {reward}", wall_ms)
        metrics = dict(agg_metrics)
        metrics.setdefault("objective", raw)
        return EvalResult(
            metrics=metrics,
            per_point=per_point,
            violations=violations,
            reward=float(reward),
            feasible=not any(violations.values()),
            wall_ms=wall_ms,
        )

    def _misfit(self, entry) -> str | None:
        """What in one design's answer breaks the rule, or None."""
        if not isinstance(entry, (list, tuple)):
            return f"a {type(entry).__name__}, not a list of metric maps"
        if len(entry) != len(self.points):
            return f"{len(entry)} metric maps for {len(self.points)} operating points"
        # A dict skips the ABC check, which costs several times as much.
        for k, metrics in enumerate(entry):
            if type(metrics) is not dict and not isinstance(metrics, Mapping):
                return f"a {type(metrics).__name__}, not a metric map, at operating point {k}"
            if misfit := non_number(metrics):
                return misfit

    def _unusable(self, per_point: tuple, reason: str, wall_ms: float) -> EvalResult:
        return EvalResult.failure(f"evaluator metrics unusable for {self.id}: {reason}", per_point, wall_ms)

    def close(self) -> None:
        closer = getattr(self.evaluator, "close", None)
        if closer is not None:
            closer()

    def with_evaluator(self, evaluator: Any) -> "ProblemEnvironment":
        """This task on `evaluator`, without the landscape, which is the old evaluator's objective."""
        return replace(self, evaluator=evaluator, landscape_value=None, landscape_gradient=None)

    def with_space(self, space: ParamSpace | None) -> "ProblemEnvironment":
        """This task searching `space` (None: its own); another space drops the built cube's landscape."""
        if space is None:
            return self
        return replace(self, space=space, landscape_value=None, landscape_gradient=None)

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
