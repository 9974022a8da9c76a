"""The benchmark task library over deterministic stand-in evaluators.

Every task couples a design space with operating points, an objective
composition, and normalized constraints. Aerodynamic metrics come from the
seeded smooth landscapes in :mod:`aerobench.landscape`; geometric quantities
(airfoil thickness, wedge angles, smoothness) are computed exactly from the
design variables. Each environment also exposes a (value, gradient) pair over
the relaxed cube. The value is the evaluated raw objective itself, the
task's own per-point metrics and aggregate at u. The gradients are written
by hand, and finite differences of the value check them (acceptance
criterion 7). The stand-in's lift is linear in alpha, so the two trim tasks
solve their lift targets exactly.

Each task has one per-point `fn(table, point, op, index)` that reads its
models' alpha-free values from an `AlphaFreeTable`. The design pass (run
per design by `StandInEvaluator.batch_metrics`, the environment's one
evaluator hook) maps the design once and fills the table with one fused
`FieldStack` evaluation of all the task's models; a trimmed point adds its
alpha term to those values, as `MetricModel.value` does, so the bits match
the per-model path. `get_environment` builds each task once per process.
"""
from __future__ import annotations

import functools
import json
from typing import Any, Callable, Sequence

import numpy as np

from ..landscape import AlphaFreeTable, FieldStack, MetricModel, metric_seed
from ..space import (
    CATEGORICAL,
    CONTINUOUS,
    DISCRETE,
    DesignPoint,
    ParamSpace,
    SpaceError,
    VariableSpec,
    continuous_space,
)
from . import geometry
from .base import (
    MAXIMIZE,
    MINIMIZE,
    ConstraintSpec,
    OperatingPoint,
    ProblemEnvironment,
)
from .formulas import (
    CAR_A_REF_M2,
    CAR_Q_INF_PA,
    car_drag_coefficient,
    fractional_violation,
    integrated_drag,
    reynolds_schedule,
    robust_min,
    weighted_multipoint,
    wiggliness,
)

CATALOG_VERSION = "3"
CATALOG_ENV_VAR = "AEROBENCH_CATALOG"

AIRFOIL_PENALTY = 500.0


def confidence_proxy(u: np.ndarray) -> float:
    """In-distribution proxy: 1 at the cube center, 0.85 at every corner."""
    sq = (2.0 * u - 1.0) ** 2
    # np.mean of a 1-D array is exactly this sum over the count.
    return 1.0 - 0.15 * (float(sq.sum()) / len(sq))


# fn(table, point, op, index) -> the metrics of one operating point, where
# table holds the design's alpha-free model values.
PointFn = Callable[[AlphaFreeTable, DesignPoint, OperatingPoint, int], dict]


class StandInEvaluator:
    """Deterministic metric source over the normalized cube.

    `batch_metrics` runs the design pass per design: it maps the design
    onto the cube once, evaluates every model of the task once in one fused
    pass (`FieldStack`), and runs `fn` per operating point on those
    alpha-free values. `point_metrics` answers one operating point and
    computes only the models that point reads.
    """

    def __init__(self, space: ParamSpace, fn: PointFn, models: Sequence[MetricModel]):
        self._space = space
        self._fn = fn
        self.fields = FieldStack(models)

    # Kept for one-request callers (a wire child serving the catalog); the environment uses batches.
    def point_metrics(self, point: DesignPoint, op: OperatingPoint, index: int) -> dict:
        table = AlphaFreeTable(self._space.normalize(point))
        return self._fn(table, point, op, index)

    def batch_metrics(
        self, points: Sequence[DesignPoint], ops: Sequence[OperatingPoint]
    ) -> list[list[dict]]:
        """Metrics of each of `points` at each of `ops`, one design pass each."""
        # The builder's space, not an override's: an override keeps a design's metrics.
        return [self.metrics_at(self._space.normalize(p), p, ops) for p in points]

    def metrics_at(
        self, u: np.ndarray, point: DesignPoint, ops: Sequence[OperatingPoint]
    ) -> list[dict]:
        """The design pass for `point`, whose unit-cube vector is `u`."""
        table = self.fields.table(u)
        return [self._fn(table, point, op, k) for k, op in enumerate(ops)]


def _model(task_id: str, name: str, dim: int, lo: float, hi: float, alpha_slope: float = 0.0) -> MetricModel:
    return MetricModel.seeded(metric_seed(task_id, name), dim, lo, hi, alpha_slope)


def _ratio_gradient(cl: MetricModel, cd: MetricModel):
    def gradient(u: np.ndarray) -> np.ndarray:
        cdv = cd.value(u)
        return (cl.gradient(u) * cdv - cl.value(u) * cd.gradient(u)) / cdv**2

    return gradient


def _ld_aggregate(per_point, ops):
    m = dict(per_point[0])
    m["LD"] = m["CL"] / m["CD"]
    return m["LD"], m


def _stand_in_env(
    tid: str,
    space: ParamSpace,
    points: tuple[OperatingPoint, ...],
    fn: PointFn,
    aggregate: Callable,
    *,
    models: Sequence[MetricModel],
    sense: str,
    gradient: Callable[[np.ndarray], np.ndarray],
    profile: dict,
    label: str,
    constraints: Sequence[ConstraintSpec] = (),
    penalty: float = AIRFOIL_PENALTY,
) -> ProblemEnvironment:
    """A task over `StandInEvaluator(space, fn, models)`.

    `models` are the metric models `fn` reads. The landscape value is the
    raw objective the design pass produces at u, so the two cannot drift
    apart. The profile's `angle_params` are the space's variables in degrees.
    """
    angles = [v.name for v in space.variables if v.unit == "deg"]
    evaluator = StandInEvaluator(space, fn, models)

    def value(u: np.ndarray) -> float:
        per_point = evaluator.metrics_at(u, space.denormalize(u), points)
        return aggregate(per_point, points)[0]

    return ProblemEnvironment(
        id=tid,
        space=space,
        points=points,
        constraints=tuple(constraints),
        sense=sense,
        penalty_weight=penalty,
        evaluator=evaluator,
        aggregate=aggregate,
        landscape_value=value,
        landscape_gradient=gradient,
        diagnostics_profile={"angle_params": angles, **profile} if angles else profile,
        objective_label=label,
    )


# ---------------------------------------------------------------------------
# 2D airfoil tasks
# ---------------------------------------------------------------------------

def _airfoil_space() -> ParamSpace:
    bounds: dict[str, tuple[float, float]] = {}
    for k in geometry.UPPER_KEYS:
        bounds[k] = (-0.30, 0.60)
    for k in geometry.LOWER_KEYS:
        bounds[k] = (-0.30, 0.30)
    bounds["p_le"] = (-0.50, 0.50)
    bounds["t_te"] = (0.0, 0.010)
    return continuous_space(bounds)


# Thickness t(x) = sqrt(x)(1-x) (S_u(x) - S_l(x)) + x t_te is checked at 19
# grid stations (for t_min) and then at x = 0.33 and 0.90. The stations, their
# Bernstein basis (8 x 21) and class-function factors are built once.
_THICKNESS_STATIONS = tuple(0.05 * i for i in range(1, 20)) + (0.33, 0.90)
_THICKNESS_X = np.array(_THICKNESS_STATIONS)
_THICKNESS_BASIS = np.stack([geometry.bernstein_row(x) for x in _THICKNESS_STATIONS], axis=1)
_THICKNESS_CLASS = np.sqrt(_THICKNESS_X) * (1.0 - _THICKNESS_X)


def _airfoil_geometry_metrics(point: DesignPoint) -> dict:
    upper, lower = geometry.surface_weights(point.values)
    t_te = float(point["t_te"])
    # A (2, 8) @ (8, 21) product sums each station like the per-station np.dot.
    shape = np.stack([upper, lower]) @ _THICKNESS_BASIS
    t = _THICKNESS_CLASS * (shape[0] - shape[1]) + _THICKNESS_X * t_te
    return {
        "t_033": float(t[-2]),
        "t_090": float(t[-1]),
        "t_min": float(t[:-2].min()),
        "theta_te": geometry.trailing_wedge_angle_deg(upper, lower, t_te),
        "theta_le": geometry.leading_edge_angle_deg(upper, lower),
        "wiggliness": wiggliness([upper, lower]),
    }


def _airfoil_constraints(*task_constraints: ConstraintSpec) -> list[ConstraintSpec]:
    """The geometry checks, then the task's own, then the confidence floor."""
    w_cap = 2.0 * geometry.reference_wiggliness()
    return [
        ConstraintSpec(
            "thickness_positive",
            "inequality",
            lambda c: fractional_violation(-c.metrics["t_min"], 0.05),
        ),
        ConstraintSpec(
            "thickness_033",
            "inequality",
            lambda c: fractional_violation(0.128 - c.metrics["t_033"], 0.128),
        ),
        ConstraintSpec(
            "thickness_090",
            "inequality",
            lambda c: fractional_violation(0.014 - c.metrics["t_090"], 0.014),
        ),
        ConstraintSpec(
            "wedge_angle",
            "inequality",
            lambda c: fractional_violation(6.03 - c.metrics["theta_te"], 6.03),
        ),
        ConstraintSpec(
            "nose_angle",
            "equality",
            lambda c: min(1.0, abs(c.metrics["theta_le"] - 180.0) / 1.0),
        ),
        ConstraintSpec(
            "smoothness",
            "inequality",
            lambda c, cap=w_cap: fractional_violation(c.metrics["wiggliness"] - cap, cap),
        ),
        *task_constraints,
        ConstraintSpec(
            "analysis_confidence",
            "inequality",
            lambda c: fractional_violation(0.90 - c.metrics["confidence"], 0.05),
        ),
    ]


def _build_airfoil_single() -> ProblemEnvironment:
    tid = "airfoil-ld-single"
    space = _airfoil_space()
    dim = space.relaxed_dim
    cl = _model(tid, "CL", dim, 0.2, 1.8)
    cd = _model(tid, "CD", dim, 0.006, 0.05)
    cm = _model(tid, "CM", dim, -0.2, 0.05)

    def fn(t, point, op, k):
        out = {"CL": t.value(cl), "CD": t.value(cd), "CM": t.value(cm)}
        out.update(_airfoil_geometry_metrics(point), confidence=confidence_proxy(t.u))
        return out

    pitching_moment = ConstraintSpec(
        "pitching_moment",
        "inequality",
        lambda c: fractional_violation(-0.133 - c.metrics["CM"], 0.067),
    )
    return _stand_in_env(
        tid, space, (OperatingPoint(alpha=5.0, mach=0.2, reynolds=1e7),),
        fn, _ld_aggregate,
        models=(cl, cd, cm),
        sense=MAXIMIZE,
        gradient=_ratio_gradient(cl, cd),
        profile={
            "required_metrics": ["CL", "CD", "CM"],
            "compat_token": "airfoil-18w",
        },
        label="maximize CL/CD",
        constraints=_airfoil_constraints(pitching_moment),
    )


_POLAR_CL_TARGETS = (0.8, 1.0, 1.2, 1.4, 1.5, 1.6)
_POLAR_WEIGHTS = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)


def _build_airfoil_multipoint() -> ProblemEnvironment:
    tid = "airfoil-drag-multipoint"
    space = _airfoil_space()
    dim = space.relaxed_dim
    cd_models = [_model(tid, f"CD@{k}", dim, 0.008, 0.04) for k in range(6)]
    cm_models = [_model(tid, f"CM@{k}", dim, -0.2, 0.05) for k in range(6)]
    cl_max = _model(tid, "CLmax", dim, 0.9, 2.0)

    def fn(t, point, op, k):
        out = {
            "CD": t.value(cd_models[k]),
            "CM": t.value(cm_models[k]),
            "CL_max": t.value(cl_max),
        }
        if k == 0:
            out.update(_airfoil_geometry_metrics(point), confidence=confidence_proxy(t.u))
        return out

    def aggregate(per_point, ops):
        raw = weighted_multipoint(
            [pp["CD"] for pp in per_point], [op.weight for op in ops]
        )
        m = {key: per_point[0][key] for key in per_point[0] if key not in ("CD", "CM")}
        m["CD_weighted"] = raw
        return raw, m

    polar = []
    for k, target in enumerate(_POLAR_CL_TARGETS):
        polar += [
            ConstraintSpec(
                f"pitching_moment_p{k}",
                "inequality",
                lambda c, k=k: fractional_violation(-0.133 - c.per_point[k]["CM"], 0.067),
            ),
            ConstraintSpec(
                f"cl_reachable_p{k}",
                "inequality",
                lambda c, k=k, t=target: fractional_violation(
                    t - c.per_point[k]["CL_max"], 0.5
                ),
            ),
        ]
    # The stand-in lift response is additive in alpha with positive slope,
    # so monotonicity holds by construction; the constraint is kept so the
    # task signature matches external evaluators that must earn it.
    monotonic = ConstraintSpec("alpha_monotonic", "inequality", lambda c: 0.0)

    weights = np.array(_POLAR_WEIGHTS) / sum(_POLAR_WEIGHTS)

    def grad(u: np.ndarray) -> np.ndarray:
        return sum(w * m.gradient(u) for w, m in zip(weights, cd_models))

    points = tuple(
        OperatingPoint(
            cl_target=t, reynolds=reynolds_schedule(t), mach=0.03, weight=w
        )
        for t, w in zip(_POLAR_CL_TARGETS, _POLAR_WEIGHTS)
    )
    return _stand_in_env(
        tid, space, points, fn, aggregate,
        models=(*cd_models, *cm_models, cl_max),
        sense=MINIMIZE,
        gradient=grad,
        profile={
            "required_metrics": ["CD_weighted"],
            "compat_token": "airfoil-18w",
        },
        label="minimize weighted mean CD at six lift targets",
        constraints=_airfoil_constraints(*polar, monotonic),
    )


# ---------------------------------------------------------------------------
# Delta wing tasks
# ---------------------------------------------------------------------------

_ROOT_AIRFOILS = ("NACA0010", "NACA0016", "NACA0024", "NACA2416", "NACA4416")


def _delta_space(sweep_kind: str) -> ParamSpace:
    if sweep_kind == CONTINUOUS:
        sweep = VariableSpec("sweep_angle", CONTINUOUS, 55.0, 75.0, unit="deg")
    else:
        sweep = VariableSpec("sweep_angle", DISCRETE, levels=(55.0, 65.0, 75.0), unit="deg")
    return ParamSpace(
        (sweep, VariableSpec("root_airfoil", CATEGORICAL, levels=_ROOT_AIRFOILS))
    )


def _ld_task(
    tid: str,
    space: ParamSpace,
    op: OperatingPoint,
    cl_range: tuple[float, float],
    cd_range: tuple[float, float],
    profile: dict,
    label: str = "maximize CL/CD",
) -> ProblemEnvironment:
    """A single-point task that maximizes CL/CD and has no constraints."""
    dim = space.relaxed_dim
    cl = _model(tid, "CL", dim, *cl_range)
    cd = _model(tid, "CD", dim, *cd_range)

    def fn(t, point, op, k):
        return {"CL": t.value(cl), "CD": t.value(cd)}

    return _stand_in_env(
        tid, space, (op,), fn, _ld_aggregate,
        models=(cl, cd),
        sense=MAXIMIZE,
        gradient=_ratio_gradient(cl, cd),
        profile=profile,
        label=label,
    )


def _build_delta_single() -> ProblemEnvironment:
    return _ld_task(
        "delta-ld-single",
        _delta_space(CONTINUOUS),
        OperatingPoint(alpha=10.0, mach=0.42, reynolds=8.2e6),
        (0.3, 1.2),
        (0.01, 0.08),
        {
            "required_metrics": ["CL", "CD"],
            "compat_token": "delta-wing",
        },
    )


def _build_delta_robust() -> ProblemEnvironment:
    tid = "delta-ld-robust"
    space = _delta_space(DISCRETE)
    dim = space.relaxed_dim
    cl_models = [_model(tid, f"CL@{k}", dim, 0.3, 1.2) for k in range(3)]
    cd_models = [_model(tid, f"CD@{k}", dim, 0.01, 0.08) for k in range(3)]

    def fn(t, point, op, k):
        return {"CL": t.value(cl_models[k]), "CD": t.value(cd_models[k])}

    def aggregate(per_point, ops):
        lds = [pp["CL"] / pp["CD"] for pp in per_point]
        raw = robust_min(lds)
        return raw, {"LD_worst": raw}

    grads = [_ratio_gradient(cl, cd) for cl, cd in zip(cl_models, cd_models)]

    def grad(u: np.ndarray) -> np.ndarray:
        lds = [cl.value(u) / cd.value(u) for cl, cd in zip(cl_models, cd_models)]
        return grads[int(np.argmin(lds))](u)

    points = (
        OperatingPoint(alpha=4.0, mach=0.35, reynolds=7.0e6),
        OperatingPoint(alpha=10.0, mach=0.42, reynolds=8.5e6),
        OperatingPoint(alpha=16.0, mach=0.50, reynolds=9.5e6),
    )
    return _stand_in_env(
        tid, space, points, fn, aggregate,
        models=(*cl_models, *cd_models),
        sense=MAXIMIZE,
        gradient=grad,
        profile={
            "required_metrics": ["LD_worst"],
            "compat_token": "delta-wing",
        },
        label="maximize worst-case CL/CD over three operating points",
    )


_TRIM_WEIGHT = 10.0


def _build_delta_multiobjective() -> ProblemEnvironment:
    tid = "delta-mo-trim"
    space = _delta_space(CONTINUOUS)
    dim = space.relaxed_dim
    cl = _model(tid, "CL", dim, 0.3, 1.2)
    cd = _model(tid, "CD", dim, 0.01, 0.08)
    cm = _model(tid, "CM", dim, -0.15, 0.15)

    def fn(t, point, op, k):
        return {"CL": t.value(cl), "CD": t.value(cd), "CM": t.value(cm)}

    def aggregate(per_point, ops):
        ld, m = _ld_aggregate(per_point, ops)
        m["abs_CM"] = abs(m["CM"])
        return ld - _TRIM_WEIGHT * m["abs_CM"], m

    ld_grad = _ratio_gradient(cl, cd)

    def grad(u: np.ndarray) -> np.ndarray:
        return ld_grad(u) - _TRIM_WEIGHT * np.sign(cm.value(u)) * cm.gradient(u)

    return _stand_in_env(
        tid, space, (OperatingPoint(alpha=10.0, mach=0.42, reynolds=8.9e6),),
        fn, aggregate,
        models=(cl, cd, cm),
        sense=MAXIMIZE,
        gradient=grad,
        profile={
            "required_metrics": ["LD", "abs_CM"],
            "compat_token": "delta-wing",
            "pareto_axes": [["LD", "maximize"], ["abs_CM", "minimize"]],
        },
        label="maximize CL/CD minus weighted trim penalty (Pareto axes recorded)",
    )


# ---------------------------------------------------------------------------
# Blended wing body
# ---------------------------------------------------------------------------

_BWB_CL_TARGETS = (0.185, 0.206, 0.206, 0.206, 0.227)
_BWB_CELL_AREAS = (0.30, 0.30, 0.20, 0.20)
_BWB_CELL_NX = (0.05, -0.03, 0.08, -0.06)
_BWB_CP_SCALE = (1.0, 0.8, 1.2, 0.9)
_BWB_CFX_SCALE = (1.0, 1.1, 0.9, 1.05)
_BWB_S_REF = 0.8
BWB_ALPHA_RANGE = (-5.0, 12.0)


def _trim_to_lift(
    t: AlphaFreeTable, cl: MetricModel, target: float, alpha_range: tuple[float, float]
) -> tuple[float, bool, float]:
    """Trim alpha to a lift target; returns (alpha, bracketed, CL at alpha).

    The stand-in's lift is linear in alpha, so the trim is solved exactly;
    `bracketed` says whether that alpha lies in the task's window.
    """
    alpha = (target - t[cl]) / cl.alpha_slope
    lo, hi = alpha_range
    return alpha, lo <= alpha <= hi, t.value(cl, alpha)


def _trim_constraints(targets: Sequence[float]) -> tuple[ConstraintSpec, ...]:
    """One lift-reachability constraint per trimmed operating point."""
    return tuple(
        ConstraintSpec(
            f"cl_reachable_p{k}",
            "inequality",
            lambda c, k=k, t=t: (1.0 - c.per_point[k]["bracketed"])
            * fractional_violation(abs(c.per_point[k]["CL"] - t), 0.1),
        )
        for k, t in enumerate(targets)
    )


def _build_bwb_multipoint() -> ProblemEnvironment:
    tid = "bwb-drag-multipoint"
    space = continuous_space(
        {
            "chord_ratio_2": (0.55, 0.85),
            "chord_ratio_3": (0.18, 0.28),
            "chord_ratio_4": (0.06, 0.09),
            "span_ratio_1": (0.10, 0.20),
            "span_ratio_2": (0.05, 0.20),
            "span_ratio_3": (0.20, 0.70),
            "sweep_inner": (40.0, 60.0),
            "sweep_mid": (40.0, 60.0),
            "sweep_outer": (24.0, 40.0),
        },
        units={"sweep_inner": "deg", "sweep_mid": "deg", "sweep_outer": "deg"},
    )
    dim = space.relaxed_dim
    cl = _model(tid, "CL", dim, -0.05, 0.35, alpha_slope=0.04)
    cp = _model(tid, "Cp", dim, -0.6, 0.2, alpha_slope=0.01)
    cfx = _model(tid, "Cfx", dim, 0.002, 0.006, alpha_slope=1e-4)
    # integrated drag is linear in the two fields given the fixed cell layout
    a_coef = sum(
        s * a * nx for s, a, nx in zip(_BWB_CP_SCALE, _BWB_CELL_AREAS, _BWB_CELL_NX)
    ) / _BWB_S_REF
    b_coef = sum(s * a for s, a in zip(_BWB_CFX_SCALE, _BWB_CELL_AREAS)) / _BWB_S_REF

    def fn(t, point, op, k):
        alpha, bracketed, clv = _trim_to_lift(t, cl, op.cl_target, BWB_ALPHA_RANGE)
        cpv = t.value(cp, alpha)
        cfxv = t.value(cfx, alpha)
        cells = [
            (cpv * cs, cfxv * fs, a, nx)
            for cs, fs, a, nx in zip(
                _BWB_CP_SCALE, _BWB_CFX_SCALE, _BWB_CELL_AREAS, _BWB_CELL_NX
            )
        ]
        return {
            "alpha_star": alpha,
            "bracketed": float(bracketed),
            "CL": clv,
            "Cp_mean": cpv,
            "Cfx_mean": cfxv,
            "CD_int": integrated_drag(cells, _BWB_S_REF),
        }

    def aggregate(per_point, ops):
        raw = float(np.mean([pp["CD_int"] for pp in per_point]))
        return raw, {"CD_int_mean": raw}

    def grad(u: np.ndarray) -> np.ndarray:
        d_alpha = -cl.gradient(u) / cl.alpha_slope
        total = np.zeros_like(u)
        for _t in _BWB_CL_TARGETS:
            total += a_coef * (cp.gradient(u) + cp.alpha_slope * d_alpha)
            total += b_coef * (cfx.gradient(u) + cfx.alpha_slope * d_alpha)
        return total / len(_BWB_CL_TARGETS)

    points = tuple(
        OperatingPoint(cl_target=t, mach=0.3, reynolds=1e7) for t in _BWB_CL_TARGETS
    )
    return _stand_in_env(
        tid, space, points, fn, aggregate,
        models=(cl, cp, cfx),
        sense=MINIMIZE,
        gradient=grad,
        profile={
            "required_metrics": ["CD_int_mean"],
            "compat_token": "bwb-9p",
        },
        label="minimize mean integrated drag at five trimmed lift targets",
        constraints=_trim_constraints(_BWB_CL_TARGETS),
    )


# ---------------------------------------------------------------------------
# Transonic swept wing
# ---------------------------------------------------------------------------

_TRANSONIC_ANGLES = (
    "sweep_angle", "dihedral_kink", "dihedral_tip",
    "twist_1", "twist_2", "twist_3", "twist_4",
)


def _transonic_space() -> ParamSpace:
    bounds: dict[str, tuple[float, float]] = {
        "sweep_angle": (25.0, 40.0),
        "aspect_ratio": (8.0, 11.0),
        "taper_ratio": (0.15, 0.40),
        "kink_position": (0.36, 0.42),
        "kink_chord_scale": (0.10, 1.10),
        "dihedral_kink": (0.5, 6.0),
        "dihedral_tip": (4.0, 6.0),
        "root_thickness": (0.14, 0.17),
        "thickness_ratio_2": (0.60, 0.70),
        "thickness_ratio_3": (0.90, 0.98),
        "thickness_ratio_4": (0.92, 1.00),
        "depth_ratio_1": (0.30, 0.80),
        "depth_ratio_2": (0.50, 1.00),
        "depth_ratio_4": (0.00, 0.80),
        "twist_1": (-4.0, -2.0),
        "twist_2": (-4.0, -2.0),
        "twist_3": (-3.0, -1.0),
        "twist_4": (-3.0, -1.0),
    }
    for i in range(10):
        bounds[f"cu{i}"] = (-0.3, 0.6)
    for i in range(10):
        bounds[f"cl{i}"] = (-0.3, 0.3)
    return continuous_space(bounds, {k: "deg" for k in _TRANSONIC_ANGLES})


TRANSONIC_CL_FLOOR = 0.45
TRANSONIC_CL_PENALTY = 10.0


def _build_transonic_single() -> ProblemEnvironment:
    tid = "transonic-drag-single"
    space = _transonic_space()
    dim = space.relaxed_dim
    cl = _model(tid, "CL", dim, 0.25, 1.05, alpha_slope=0.05)
    cd = _model(tid, "CD", dim, 0.015, 0.08)

    def fn(t, point, op, k):
        return {"CL": t.value(cl, op.alpha), "CD": t.value(cd, op.alpha)}

    def aggregate(per_point, ops):
        m = dict(per_point[0])
        shortfall = max(0.0, TRANSONIC_CL_FLOOR - m["CL"])
        m["lift_shortfall"] = shortfall
        raw = m["CD"] + TRANSONIC_CL_PENALTY * shortfall**2
        return raw, m

    op = OperatingPoint(alpha=3.0, mach=0.82)

    def grad(u: np.ndarray) -> np.ndarray:
        shortfall = max(0.0, TRANSONIC_CL_FLOOR - cl.value(u, op.alpha))
        return cd.gradient(u) - 2.0 * TRANSONIC_CL_PENALTY * shortfall * cl.gradient(u)

    return _stand_in_env(
        tid, space, (op,), fn, aggregate,
        models=(cl, cd),
        sense=MINIMIZE,
        gradient=grad,
        profile={
            "required_metrics": ["CL", "CD"],
            "compat_token": "swept-wing-38p",
        },
        label="minimize CD with quadratic lift-floor penalty",
    )


_RANGE_CL_TARGETS = (0.30, 0.40, 0.50, 0.60)
RANGE_MACH = 0.80
RANGE_ALPHA_RANGE = (2.0, 12.0)


def _build_transonic_range() -> ProblemEnvironment:
    tid = "transonic-range-multipoint"
    space = _transonic_space()
    dim = space.relaxed_dim
    cl = _model(tid, "CL", dim, 0.02, 0.18, alpha_slope=0.05)
    cd = _model(tid, "CD", dim, 0.02, 0.09, alpha_slope=0.003)

    def term(clv: float, cdv: float, target: float) -> float:
        return -RANGE_MACH * clv / cdv + (RANGE_MACH**2 * clv - RANGE_MACH * target) ** 2

    def fn(t, point, op, k):
        alpha, bracketed, clv = _trim_to_lift(t, cl, op.cl_target, RANGE_ALPHA_RANGE)
        cdv = t.value(cd, alpha)
        return {
            "alpha_star": alpha,
            "bracketed": float(bracketed),
            "CL": clv,
            "CD": cdv,
            "range_term": term(clv, cdv, op.cl_target),
        }

    def aggregate(per_point, ops):
        raw = weighted_multipoint(
            [pp["range_term"] for pp in per_point], [op.weight for op in ops]
        )
        return raw, {"range_objective": raw}

    weights = np.array(_RANGE_CL_TARGETS) / sum(_RANGE_CL_TARGETS)

    def grad(u: np.ndarray) -> np.ndarray:
        d_alpha = -cl.gradient(u) / cl.alpha_slope
        total = np.zeros_like(u)
        for w, t in zip(weights, _RANGE_CL_TARGETS):
            a = (t - cl.value(u, 0.0)) / cl.alpha_slope
            clv = cl.value(u, a)
            cdv = cd.value(u, a)
            g_cl = cl.gradient(u) + cl.alpha_slope * d_alpha  # zero by construction
            g_cd = cd.gradient(u) + cd.alpha_slope * d_alpha
            d_ld = -RANGE_MACH * (g_cl * cdv - clv * g_cd) / cdv**2
            d_pen = (
                2.0
                * (RANGE_MACH**2 * clv - RANGE_MACH * t)
                * RANGE_MACH**2
                * g_cl
            )
            total += w * (d_ld + d_pen)
        return total

    points = tuple(
        OperatingPoint(cl_target=t, mach=RANGE_MACH, weight=t) for t in _RANGE_CL_TARGETS
    )
    return _stand_in_env(
        tid, space, points, fn, aggregate,
        models=(cl, cd),
        sense=MINIMIZE,
        gradient=grad,
        profile={
            "required_metrics": ["range_objective"],
            "compat_token": "swept-wing-38p",
        },
        label="minimize lift-weighted range objective at four trimmed lift targets",
        constraints=_trim_constraints(_RANGE_CL_TARGETS),
    )


# ---------------------------------------------------------------------------
# CCA drone
# ---------------------------------------------------------------------------

def _build_cca() -> ProblemEnvironment:
    variables = [
        VariableSpec("dihedral_angle", CONTINUOUS, 0.25, 15.0, unit="deg"),
        VariableSpec("max_wing_blend", CONTINUOUS, 25.0, 1000.0, unit="mm"),
        VariableSpec("inlet_angle_1", CONTINUOUS, 0.0, 45.0, unit="deg"),
        VariableSpec("inlet_angle_2", CONTINUOUS, 0.0, 10.0, unit="deg"),
        VariableSpec("wing_position", CONTINUOUS, 0.22, 0.51),
        VariableSpec("rear_point_x", CONTINUOUS, 4500.0, 7500.0, unit="mm"),
        VariableSpec("inlet_location", CONTINUOUS, 0.2, 0.6),
        VariableSpec("naca_airfoil", CATEGORICAL, levels=("1412", "0012", "2408", "4412")),
        VariableSpec("fore_top_angle", CONTINUOUS, 0.0, 10.0, unit="deg"),
        VariableSpec("aft_top_angle", CONTINUOUS, 12.0, 32.5, unit="deg"),
        VariableSpec("top_height_aft", CONTINUOUS, 36.0, 220.0, unit="mm"),
        VariableSpec("bottom_height_aft", CONTINUOUS, 38.0, 208.0, unit="mm"),
        VariableSpec("wing_span", CONTINUOUS, 6500.0, 20000.0, unit="mm"),
        VariableSpec("rear_tail_offset", CONTINUOUS, 992.0, 1770.0, unit="mm"),
        VariableSpec("root_chord", CONTINUOUS, 1431.0, 2700.0, unit="mm"),
        VariableSpec("tail_root_chord", CONTINUOUS, 800.0, 1200.0, unit="mm"),
    ]
    return _ld_task(
        "cca-ld-single",
        ParamSpace(tuple(variables)),
        OperatingPoint(alpha=3.0, mach=0.4, reynolds=8e6),
        (0.2, 1.2),
        (0.02, 0.12),
        {
            "required_metrics": ["CL", "CD"],
            "compat_token": "cca-16p",
        },
    )


# ---------------------------------------------------------------------------
# 3D car
# ---------------------------------------------------------------------------

CAR_PARAM_BOUNDS: dict[str, tuple[float, float]] = {
    "car_size": (0.8, 1.2),
    "car_width": (-0.1, 0.1),
    "car_len": (-0.1, 0.1),
    "ramp_angle": (-8.0, 8.0),
    "front_bumper_length": (-0.1, 0.1),
    "wind_screen_x": (-0.05, 0.05),
    "wind_screen_z": (-0.05, 0.05),
    "side_mirrors_x": (-0.05, 0.05),
    "side_mirrors_z": (-0.05, 0.05),
    "rear_window_x": (-0.05, 0.05),
    "rear_window_z": (-0.05, 0.05),
    "trunklid_angle": (-8.0, 8.0),
    "trunklid_x": (-0.05, 0.05),
    "trunklid_z": (-0.05, 0.05),
    "diffusor_angle": (-8.0, 8.0),
    "car_green_house_angle": (-8.0, 8.0),
    "car_front_hood_angle": (-8.0, 8.0),
    "car_air_intake_angle": (-8.0, 8.0),
    "tires_diameter": (-0.013, 0.013),
    "tires_width": (-0.015, 0.015),
}

CAR_ANGLE_PARAMS = (
    "ramp_angle",
    "trunklid_angle",
    "diffusor_angle",
    "car_green_house_angle",
    "car_front_hood_angle",
    "car_air_intake_angle",
)


def _build_car() -> ProblemEnvironment:
    tid = "car-drag-single"
    units = {k: "deg" for k in CAR_ANGLE_PARAMS}
    units.update({k: "m" for k in CAR_PARAM_BOUNDS if k.endswith(("_x", "_z"))})
    space = continuous_space(CAR_PARAM_BOUNDS, units)
    dim = space.relaxed_dim
    fp = _model(tid, "drag_pressure", dim, 60.0, 220.0)
    fs = _model(tid, "drag_shear", dim, 15.0, 70.0)
    lift = _model(tid, "lift", dim, -400.0, 250.0)

    def fn(t, point, op, k):
        fpv = t.value(fp)
        fsv = t.value(fs)
        return {
            "drag_pressure": fpv,
            "drag_shear": fsv,
            "drag": fpv + fsv,
            "Cd": car_drag_coefficient(fpv, fsv),
            "lift": t.value(lift),
        }

    def aggregate(per_point, ops):
        m = dict(per_point[0])
        return m["Cd"], m

    def grad(u: np.ndarray) -> np.ndarray:
        return (fp.gradient(u) + fs.gradient(u)) / (CAR_Q_INF_PA * CAR_A_REF_M2)

    return _stand_in_env(
        tid, space, (OperatingPoint(mach=0.117),), fn, aggregate,
        models=(fp, fs, lift),
        sense=MINIMIZE,
        gradient=grad,
        profile={
            "scale_param": "car_size",
            "width_param": "car_width",
            "length_param": "car_len",
            "required_metrics": ["drag", "Cd", "lift", "drag_pressure", "drag_shear"],
            "compat_token": "vtk_E",
        },
        label="minimize Cd",
    )


# ---------------------------------------------------------------------------
# Mixed-variable aircraft
# ---------------------------------------------------------------------------

CERAS_PENALTY = 20000.0


def _build_ceras() -> ProblemEnvironment:
    tid = "ceras-fuel-mixed"
    variables = (
        VariableSpec("x_mac", CONTINUOUS, 16.0, 18.0, unit="m"),
        VariableSpec("ar_wing", CONTINUOUS, 5.0, 11.0),
        VariableSpec("ar_vtail", CONTINUOUS, 1.5, 6.0),
        VariableSpec("ar_htail", CONTINUOUS, 1.5, 6.0),
        VariableSpec("taper_wing", CONTINUOUS, 0.0, 1.0),
        VariableSpec("sweep_wing", CONTINUOUS, 20.0, 30.0, unit="deg"),
        VariableSpec("cruise_altitude", DISCRETE, levels=(30000, 32000, 34000, 36000), unit="ft"),
        VariableSpec("engine_count", DISCRETE, levels=(2, 3, 4)),
        VariableSpec("tail_geometry", CATEGORICAL, levels=("T-tail", "no T-tail")),
        VariableSpec("engine_position", CATEGORICAL, levels=("front engines", "rear engines")),
    )
    space = ParamSpace(variables)
    dim = space.relaxed_dim  # 12 after one-hot relaxation
    fuel = _model(tid, "FuelMass", dim, 17000.0, 23000.0)
    sm = _model(tid, "StaticMargin", dim, 0.0, 0.15)

    def fn(t, point, op, k):
        return {"FuelMass": t.value(fuel), "StaticMargin": t.value(sm)}

    def aggregate(per_point, ops):
        m = dict(per_point[0])
        return m["FuelMass"], m

    constraints = (
        ConstraintSpec(
            "static_margin_low",
            "inequality",
            lambda c: fractional_violation(0.05 - c.metrics["StaticMargin"], 0.05),
        ),
        ConstraintSpec(
            "static_margin_high",
            "inequality",
            lambda c: fractional_violation(c.metrics["StaticMargin"] - 0.1, 0.05),
        ),
    )
    return _stand_in_env(
        tid, space, (OperatingPoint(mach=0.78),), fn, aggregate,
        models=(fuel, sm),
        sense=MINIMIZE,
        gradient=fuel.gradient,
        profile={
            "required_metrics": ["FuelMass", "StaticMargin"],
            "compat_token": "ceras-a320",
            "tags": ["mixed"],
        },
        label="minimize FuelMass subject to static-margin window",
        constraints=constraints,
        penalty=CERAS_PENALTY,
    )


def _build_sta() -> ProblemEnvironment:
    variables = (
        VariableSpec("sweep_inboard", CONTINUOUS, 10.0, 50.0, unit="deg"),
        VariableSpec("sweep_outboard", CONTINUOUS, 10.0, 70.0, unit="deg"),
        VariableSpec("canard_position", CONTINUOUS, 0.1, 0.4),
        VariableSpec("wing_position", CONTINUOUS, 0.4, 0.7),
        VariableSpec("break_chord_ratio", CONTINUOUS, 0.1, 0.9),
        VariableSpec("break_span_ratio", CONTINUOUS, 0.1, 0.7),
        VariableSpec("cranked_wing", CATEGORICAL, levels=("cranked", "not cranked")),
        VariableSpec("tail_geometry", CATEGORICAL, levels=("T-tail", "no T-tail")),
        VariableSpec("canard", CATEGORICAL, levels=("canard", "no canard")),
    )
    return _ld_task(
        "sta-ld-mixed",
        ParamSpace(variables),
        OperatingPoint(mach=1.5, altitude=50000.0),
        (0.08, 0.4),
        (0.008, 0.05),
        {
            "required_metrics": ["CL", "CD"],
            "compat_token": "sta-cruise",
            "tags": ["mixed"],
        },
        "maximize cruise CL/CD",
    )


# ---------------------------------------------------------------------------
# Registry and catalog I/O
# ---------------------------------------------------------------------------

_BUILDERS: dict[str, Callable[[], ProblemEnvironment]] = {
    "airfoil-ld-single": _build_airfoil_single,
    "airfoil-drag-multipoint": _build_airfoil_multipoint,
    "delta-ld-single": _build_delta_single,
    "delta-ld-robust": _build_delta_robust,
    "delta-mo-trim": _build_delta_multiobjective,
    "bwb-drag-multipoint": _build_bwb_multipoint,
    "transonic-drag-single": _build_transonic_single,
    "transonic-range-multipoint": _build_transonic_range,
    "cca-ld-single": _build_cca,
    "car-drag-single": _build_car,
    "ceras-fuel-mixed": _build_ceras,
    "sta-ld-mixed": _build_sta,
}


def task_ids() -> list[str]:
    return list(_BUILDERS)


@functools.cache
def get_environment(task_id: str) -> ProblemEnvironment:
    """The catalog task `task_id` as its builder makes it, built once per process.

    Its stand-in evaluator holds no state between calls; an overridden space is a copy (`with_space`).
    """
    if task_id not in _BUILDERS:
        raise KeyError(f"unknown task {task_id!r}; known: {', '.join(_BUILDERS)}")
    return _BUILDERS[task_id]()


def overridden_spaces(data: Any) -> dict[str, ParamSpace]:
    """The space that a parsed catalog override gives each task it names.

    An unknown task id, a changed variable name or kind, or a level the task
    does not have raises SpaceError; a missing key raises KeyError.
    """
    tasks = data.get("tasks") if isinstance(data, dict) else None
    # Accept both the catalog export shape (list of entries with "id")
    # and a terser mapping of task id -> entry.
    if isinstance(tasks, list):
        tasks = {t["id"]: t for t in tasks}
    if not isinstance(tasks, dict):
        raise SpaceError('needs an object with a "tasks" list or mapping')
    spaces = {}
    for task_id, entry in tasks.items():
        if task_id not in _BUILDERS:
            raise SpaceError(f"unknown task {task_id!r}")
        built, space = get_environment(task_id).space, ParamSpace.from_json(entry["space"])
        if space.names != built.names:
            raise SpaceError(f"{task_id} must keep the variable names")
        # The stand-in evaluator maps a design by the task's own kinds and levels.
        for new, old in zip(space.variables, built.variables):
            if new.kind != old.kind or not set(new.levels or ()) <= set(old.levels or ()):
                raise SpaceError(
                    f"{task_id}: {new.name} must keep its kind and use only the task's levels"
                )
        spaces[task_id] = space
    return spaces


def catalog_json() -> dict:
    return {
        "catalog_version": CATALOG_VERSION,
        "tasks": [get_environment(tid).describe() for tid in task_ids()],
    }


def write_catalog(path: str) -> None:
    with open(path, "w") as fh:
        json.dump(catalog_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
