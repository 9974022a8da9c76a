"""Deterministic design-validity checks producing a tiered evidence bundle.

Three tiers of checks run over a (space, design, metrics, artifacts)
snapshot: feasibility (F001-F006), geometry risk (G001-G003), and
aerodynamic plausibility (A001-A004). The assembled bundle is validated
against a JSON schema before being returned; an integrative-judge slot is
reserved in the bundle but populated with a skip marker unless an external
report is injected.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import jsonschema

from .space import CONTINUOUS, DesignPoint, ParamSpace

BUNDLE_VERSION = "0.1.0"

STATUS_OK = "ok"
STATUS_WARNING = "warning"
STATUS_ISSUE = "issue"
STATUS_ERROR = "error"
STATUS_MISSING = "missing"
_STATUSES = (STATUS_OK, STATUS_WARNING, STATUS_ISSUE, STATUS_ERROR, STATUS_MISSING)

# G-check thresholds.
NEAR_BOUND_MARGIN_RATIO = 0.05
G001_WARN_FRACTION = 0.6
G002_WARN_SUM = 26.0
G003_WARN_SCORE = 2.4
G003_SEVERITY_MAX = 3.0

# A-check thresholds.
A001_WARN_REL_ERR = 0.02
A002_CD_RANGE = (0.0, 1.5)
A003_WARN_ABS_LIFT = 200000.0
EXPECTED_IMAGE_SUFFIXES = (
    "Pressure_iso.png",
    "Pressure_top.png",
    "Pressure_side.png",
    "WSSx_iso.png",
    "WSSx_top.png",
    "WSSx_side.png",
)

_SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "schemas", "evidence_bundle.schema.json")


def bundle_schema() -> dict:
    with open(_SCHEMA_PATH) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _bundle_validator():
    """The bundle schema's validator, built on the first bundle of a process.

    `jsonschema.validate` checks the schema against its metaschema and builds
    a new validator on every call; doing that once leaves each bundle's
    validation the same.
    """
    schema = bundle_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _clamp01(x: float) -> float:
    return min(max(float(x), 0.0), 1.0)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    tier: str
    status: str
    severity: float
    message: str
    value: Any
    threshold: Any
    evidence_refs: tuple[str, ...] = ()
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(f"severity {self.severity} outside [0,1]")
        if self.status == STATUS_OK and self.severity != 0.0:
            raise ValueError("ok checks must have severity 0")

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "tier": self.tier,
            "status": self.status,
            "severity": self.severity,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
            "evidence_refs": list(self.evidence_refs),
            "metadata": dict(self.metadata),
        }


@dataclass(frozen=True)
class DiagnosticInputs:
    """Everything the deterministic tier inspects for one design."""

    environment: str
    design_id: str
    space: ParamSpace
    design_params: Mapping[str, Any]
    metrics: Mapping[str, Any]
    artifacts: Mapping[str, str] = field(default_factory=dict)
    # None means "no image list supplied" (A004 reports missing); an empty
    # tuple means "nothing rendered" (A004 reports zero coverage).
    images: tuple[str, ...] | None = None
    profile: Mapping[str, Any] = field(default_factory=dict)
    design_refs: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Feasibility tier (F001-F006)
# ---------------------------------------------------------------------------


def check_bounds_and_presence(inputs: DiagnosticInputs) -> list[CheckResult]:
    space = inputs.space
    params = inputs.design_params
    refs = inputs.design_refs

    missing = [v.name for v in space.variables if v.name not in params]
    results = [
        CheckResult(
            check_id="F001_required_params_present",
            tier="feasibility",
            status=STATUS_OK if not missing else STATUS_ISSUE,
            severity=0.0 if not missing else 1.0,
            message=(
                "All required parameters present."
                if not missing
                else f"Missing required parameters: {missing}."
            ),
            value={"missing": missing},
            threshold=None,
            evidence_refs=refs[:1],
        )
    ]

    violations = []
    for v in space.variables:
        if v.name not in params:
            continue
        val = params[v.name]
        if v.kind == CONTINUOUS:
            try:
                x = float(val)
            except (TypeError, ValueError):
                violations.append({"key": v.name, "value": val, "reason": "non-numeric"})
                continue
            # Bounds are a closed interval: exactly-at-bound passes.
            if not (v.lower <= x <= v.upper):
                violations.append(
                    {
                        "key": v.name,
                        "value": x,
                        "lower": v.lower,
                        "upper": v.upper,
                    }
                )
        else:
            if val not in v.levels:
                violations.append({"key": v.name, "value": val, "reason": "unknown level"})
    results.append(
        CheckResult(
            check_id="F002_param_bounds_respected",
            tier="feasibility",
            status=STATUS_OK if not violations else STATUS_ISSUE,
            severity=0.0 if not violations else 1.0,
            message=(
                "All parameter values within bounds."
                if not violations
                else f"{len(violations)} parameter(s) violate bounds."
            ),
            value={"violations": violations},
            threshold="within configured bounds",
            evidence_refs=refs,
        )
    )

    for check_id, key, label in (
        ("F003_base_vtk_exists", "base_vtk_path", "Base VTK"),
        ("F004_norm_stats_exists", "norm_stats_path", "Norm stats file"),
    ):
        path = inputs.artifacts.get(key)
        if path is None:
            status = STATUS_MISSING
            msg = f"{label} path not supplied."
        elif os.path.exists(path):
            status = STATUS_OK
            msg = f"{label} exists."
        else:
            status = STATUS_ISSUE
            msg = f"{label} not found at the declared path."
        results.append(
            CheckResult(
                check_id=check_id,
                tier="feasibility",
                status=status,
                severity=1.0 if status == STATUS_ISSUE else 0.0,
                message=msg,
                value=path,
                threshold=None,
                evidence_refs=(path,) if path else (),
            )
        )

    required_metrics = list(inputs.profile.get("required_metrics", inputs.metrics))
    metric_missing = [k for k in required_metrics if k not in inputs.metrics]
    non_finite = [
        k
        for k in required_metrics
        if k in inputs.metrics
        and not (
            isinstance(inputs.metrics[k], (int, float))
            and math.isfinite(inputs.metrics[k])
        )
    ]
    clean = not metric_missing and not non_finite
    results.append(
        CheckResult(
            check_id="F005_metrics_finite",
            tier="feasibility",
            status=STATUS_OK if clean else STATUS_ISSUE,
            severity=0.0 if clean else 1.0,
            message=(
                "All required metrics are finite."
                if clean
                else f"Metric problems: missing {metric_missing}, non-finite {non_finite}."
            ),
            value={"missing": metric_missing, "non_finite": non_finite},
            threshold=None,
            evidence_refs=refs,
        )
    )

    # F006: opaque compatibility-token equality between the environment's
    # expected token and the provided artifact path, with the short style
    # suffix surfaced for readability.
    token = inputs.profile.get("compat_token")
    norm_path = inputs.artifacts.get("norm_stats_path", "")
    base_path = inputs.artifacts.get("base_vtk_path", "")
    if token is None or (not base_path and not norm_path):
        status = STATUS_MISSING
        msg = (
            "No compatibility token declared for this environment."
            if token is None
            else "No artifacts supplied for compatibility inference."
        )
        style = None
    else:
        style = str(token).rsplit("_", 1)[-1]
        compatible = token in (base_path or "") or token in (norm_path or "")
        status = STATUS_OK if compatible else STATUS_ISSUE
        msg = (
            f"Norm stats compatible with inferred body style '{style}'."
            if compatible
            else f"Artifacts do not match compatibility token '{token}'."
        )
    results.append(
        CheckResult(
            check_id="F006_body_style_norm_compatibility",
            tier="feasibility",
            status=status,
            severity=0.0 if status in (STATUS_OK, STATUS_MISSING) else 1.0,
            message=msg,
            value={"style": style, "norm_stats_path": norm_path or None},
            threshold=None,
            evidence_refs=refs,
        )
    )
    return results


# ---------------------------------------------------------------------------
# Geometry tier (G001-G003)
# ---------------------------------------------------------------------------


def near_bound_fraction(
    space: ParamSpace,
    params: Mapping[str, Any],
    margin_ratio: float = NEAR_BOUND_MARGIN_RATIO,
) -> tuple[float, list[str]]:
    """Fraction of numeric parameters within margin_ratio of a bound.

    A parameter counts as near-bound iff min(x - l, u - x) is at most
    margin_ratio times the bound range (inclusive). Non-numeric entries
    (for example a free-text name) are excluded from the denominator.
    """
    if not 0.0 < margin_ratio < 0.5:
        raise ValueError("margin_ratio must be in (0, 0.5)")
    keys: list[str] = []
    total = 0
    for v in space.variables:
        if v.kind != CONTINUOUS or v.name not in params:
            continue
        try:
            x = float(params[v.name])
        except (TypeError, ValueError):
            continue
        total += 1
        margin = margin_ratio * (v.upper - v.lower)
        if min(x - v.lower, v.upper - x) <= margin:
            keys.append(v.name)
    if total == 0:
        raise ValueError("no numeric parameters to assess")
    return len(keys) / total, keys


def check_geometry(inputs: DiagnosticInputs) -> list[CheckResult]:
    space = inputs.space
    params = inputs.design_params
    refs = inputs.design_refs
    results = []

    try:
        fraction, keys = near_bound_fraction(space, params)
    except ValueError:
        results.append(
            CheckResult(
                check_id="G001_param_extremeness_ratio",
                tier="geometry",
                status=STATUS_MISSING,
                severity=0.0,
                message="No numeric parameters available for extremeness analysis.",
                value=None,
                threshold={"warn_fraction": G001_WARN_FRACTION, "margin_ratio": NEAR_BOUND_MARGIN_RATIO},
                evidence_refs=refs,
            )
        )
    else:
        tripped = fraction > G001_WARN_FRACTION
        severity = (
            _clamp01(0.5 + 2.0 * (fraction - G001_WARN_FRACTION)) if tripped else 0.0
        )
        results.append(
            CheckResult(
                check_id="G001_param_extremeness_ratio",
                tier="geometry",
                status=STATUS_WARNING if tripped else STATUS_OK,
                severity=severity,
                message=(
                    f"High fraction of parameters near bounds ({fraction:.2f})."
                    if tripped
                    else f"Parameter extremeness acceptable ({fraction:.2f})."
                ),
                value={"near_bound_fraction": fraction, "near_bound_keys": keys},
                threshold={
                    "warn_fraction": G001_WARN_FRACTION,
                    "margin_ratio": NEAR_BOUND_MARGIN_RATIO,
                },
                evidence_refs=refs,
            )
        )

    angle_params = list(inputs.profile.get("angle_params", []))
    missing_angles = [k for k in angle_params if k not in params]
    if not angle_params or missing_angles:
        results.append(
            CheckResult(
                check_id="G002_combined_angle_stress",
                tier="geometry",
                status=STATUS_MISSING,
                severity=0.0,
                message=(
                    "No angle-type parameters declared."
                    if not angle_params
                    else f"Angle parameters missing: {missing_angles}."
                ),
                value=None,
                threshold={"warn_sum": G002_WARN_SUM},
                evidence_refs=refs,
            )
        )
    else:
        angle_sum = float(sum(abs(float(params[k])) for k in angle_params))
        tripped = angle_sum > G002_WARN_SUM
        severity = _clamp01(angle_sum / (2.0 * G002_WARN_SUM)) if tripped else 0.0
        results.append(
            CheckResult(
                check_id="G002_combined_angle_stress",
                tier="geometry",
                status=STATUS_WARNING if tripped else STATUS_OK,
                severity=severity,
                message=(
                    f"Combined angle stress is high ({angle_sum:.2f} deg abs-sum)."
                    if tripped
                    else f"Combined angle stress acceptable ({angle_sum:.2f} deg abs-sum)."
                ),
                value={"combined_abs_angle_sum": angle_sum},
                threshold={"warn_sum": G002_WARN_SUM},
                evidence_refs=refs,
            )
        )

    scale_key = inputs.profile.get("scale_param")
    width_key = inputs.profile.get("width_param")
    length_key = inputs.profile.get("length_param")
    declared = scale_key and width_key and length_key
    have_all = declared and all(k in params for k in (scale_key, width_key, length_key))
    if not have_all:
        results.append(
            CheckResult(
                check_id="G003_size_width_length_coupling",
                tier="geometry",
                status=STATUS_MISSING,
                severity=0.0,
                message=(
                    "No scale/width/length parameters declared."
                    if not declared
                    else "Declared scale/width/length parameters missing from design."
                ),
                value=None,
                threshold={"warn_score": G003_WARN_SCORE},
                evidence_refs=refs,
            )
        )
    else:
        scale_var = space.var(scale_key)
        width_var = space.var(width_key)
        length_var = space.var(length_key)
        scale_nominal = 0.5 * (scale_var.lower + scale_var.upper)
        scale_half = 0.5 * (scale_var.upper - scale_var.lower)
        width_half = 0.5 * (width_var.upper - width_var.lower)
        length_half = 0.5 * (length_var.upper - length_var.lower)
        scale = float(params[scale_key])
        width = float(params[width_key])
        length = float(params[length_key])
        coupling = (
            abs(scale - scale_nominal) / scale_half
            + abs(width) / width_half
            + abs(length) / length_half
        )
        tripped = coupling > G003_WARN_SCORE
        severity = _clamp01(coupling / G003_SEVERITY_MAX) if tripped else 0.0
        results.append(
            CheckResult(
                check_id="G003_size_width_length_coupling",
                tier="geometry",
                status=STATUS_WARNING if tripped else STATUS_OK,
                severity=severity,
                message=(
                    "Global scale + width/length coupling is aggressive; "
                    "geometry realism risk increased."
                    if tripped
                    else "Scale/width/length coupling within expected range."
                ),
                value={
                    scale_key: scale,
                    f"abs_{width_key}": abs(width),
                    f"abs_{length_key}": abs(length),
                    "coupling_score": coupling,
                },
                threshold={"warn_score": G003_WARN_SCORE},
                evidence_refs=refs,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Aero tier (A001-A004)
# ---------------------------------------------------------------------------


def _finite(metrics: Mapping[str, Any], key: str) -> float | None:
    val = metrics.get(key)
    if isinstance(val, (int, float)) and math.isfinite(val):
        return float(val)
    return None


def check_aero(inputs: DiagnosticInputs) -> list[CheckResult]:
    metrics = inputs.metrics
    refs = inputs.design_refs
    results = []

    drag = _finite(metrics, "drag")
    dp = _finite(metrics, "drag_pressure")
    ds = _finite(metrics, "drag_shear")
    if drag is None or dp is None or ds is None:
        results.append(
            CheckResult(
                check_id="A001_drag_decomposition_consistency",
                tier="aero",
                status=STATUS_MISSING,
                severity=0.0,
                message="Drag decomposition metrics unavailable.",
                value=None,
                threshold={"warn_rel_err": A001_WARN_REL_ERR},
                evidence_refs=refs,
            )
        )
    else:
        rel_err = abs(drag - (dp + ds)) / max(abs(drag), 1e-12)
        tripped = rel_err > A001_WARN_REL_ERR
        severity = (
            _clamp01((rel_err - A001_WARN_REL_ERR) / A001_WARN_REL_ERR) if tripped else 0.0
        )
        results.append(
            CheckResult(
                check_id="A001_drag_decomposition_consistency",
                tier="aero",
                status=STATUS_WARNING if tripped else STATUS_OK,
                severity=severity,
                message=(
                    f"Drag decomposition inconsistent (rel_err={rel_err:.5f})."
                    if tripped
                    else f"Drag decomposition consistent (rel_err={rel_err:.5f})."
                ),
                value={
                    "drag": drag,
                    "drag_pressure_plus_shear": dp + ds,
                    "rel_err": rel_err,
                },
                threshold={"warn_rel_err": A001_WARN_REL_ERR},
                evidence_refs=refs,
            )
        )

    cd = _finite(metrics, "Cd")
    lo, hi = A002_CD_RANGE
    if cd is None:
        results.append(
            CheckResult(
                check_id="A002_cd_plausible_range",
                tier="aero",
                status=STATUS_MISSING,
                severity=0.0,
                message="Cd metric unavailable.",
                value=None,
                threshold={"min": lo, "max": hi},
                evidence_refs=refs,
            )
        )
    else:
        excess = max(lo - cd, cd - hi, 0.0)
        tripped = excess > 0.0
        results.append(
            CheckResult(
                check_id="A002_cd_plausible_range",
                tier="aero",
                status=STATUS_WARNING if tripped else STATUS_OK,
                severity=_clamp01(excess / hi) if tripped else 0.0,
                message=(
                    "Cd outside plausible warning band."
                    if tripped
                    else "Cd within plausible warning band."
                ),
                value=cd,
                threshold={"min": lo, "max": hi},
                evidence_refs=refs,
            )
        )

    lift = _finite(metrics, "lift")
    if lift is None:
        results.append(
            CheckResult(
                check_id="A003_lift_plausible_range",
                tier="aero",
                status=STATUS_MISSING,
                severity=0.0,
                message="Lift metric unavailable.",
                value=None,
                threshold={"warn_abs": A003_WARN_ABS_LIFT},
                evidence_refs=refs,
            )
        )
    else:
        excess = abs(lift) - A003_WARN_ABS_LIFT
        tripped = excess > 0.0
        results.append(
            CheckResult(
                check_id="A003_lift_plausible_range",
                tier="aero",
                status=STATUS_WARNING if tripped else STATUS_OK,
                severity=_clamp01(excess / A003_WARN_ABS_LIFT) if tripped else 0.0,
                message=(
                    "Lift magnitude outside plausible warning range."
                    if tripped
                    else "Lift magnitude within plausible warning range."
                ),
                value=lift,
                threshold={"warn_abs": A003_WARN_ABS_LIFT},
                evidence_refs=refs,
            )
        )

    if inputs.images is None:
        results.append(
            CheckResult(
                check_id="A004_image_availability_signal",
                tier="aero",
                status=STATUS_MISSING,
                severity=0.0,
                message="No image list supplied.",
                value=None,
                threshold={"expected_total": len(EXPECTED_IMAGE_SUFFIXES)},
                evidence_refs=refs,
            )
        )
        return results

    suffix_map = {
        suffix: any(img.endswith(suffix) for img in inputs.images)
        for suffix in EXPECTED_IMAGE_SUFFIXES
    }
    present = sum(suffix_map.values())
    total = len(EXPECTED_IMAGE_SUFFIXES)
    coverage = present / total
    tripped = present < total
    results.append(
        CheckResult(
            check_id="A004_image_availability_signal",
            tier="aero",
            status=STATUS_WARNING if tripped else STATUS_OK,
            severity=_clamp01((total - present) / total) if tripped else 0.0,
            message=(
                "All expected flow images are available."
                if not tripped
                else "Missing flow images: "
                + ", ".join(s for s, ok in suffix_map.items() if not ok)
                + "."
            ),
            value={
                "present": present,
                "total": total,
                "coverage": coverage,
                "suffix_map": suffix_map,
            },
            threshold={"expected_total": total},
            evidence_refs=tuple(inputs.images),
        )
    )
    return results


# ---------------------------------------------------------------------------
# Bundle assembly
# ---------------------------------------------------------------------------

LLM_REPORT_SKIPPED = {"diagnostic_status": "skipped"}


def _summarize(checks: Sequence[CheckResult]) -> dict:
    counts = {s: 0 for s in _STATUSES}
    for c in checks:
        counts[c.status] += 1
    return counts


def build_evidence_bundle(
    inputs: DiagnosticInputs,
    llm_report: Mapping[str, Any] | None = None,
    timestamp_utc: str | None = None,
) -> dict:
    """Run all tiers, assemble, and schema-validate the evidence bundle."""
    feasibility = check_bounds_and_presence(inputs)
    geometry = check_geometry(inputs)
    aero = check_aero(inputs)

    notes: list[str] = []
    if not inputs.metrics:
        notes.append("No metrics supplied; aero tier reported as missing.")
    if not inputs.images:
        notes.append("No flow images supplied.")
    images = list(inputs.images or [])

    bundle = {
        "version": BUNDLE_VERSION,
        "environment": inputs.environment,
        "design_id": inputs.design_id,
        "timestamp_utc": timestamp_utc,
        "input_snapshot": {
            "environment": inputs.environment,
            "design_id": inputs.design_id,
            "design_params": dict(inputs.design_params),
            "metrics": dict(inputs.metrics),
            "images": images,
            "model_artifacts": dict(inputs.artifacts),
        },
        "evidence_bundle": {
            "environment": inputs.environment,
            "design_id": inputs.design_id,
            "feasibility": [c.to_json() for c in feasibility],
            "geometry": [c.to_json() for c in geometry],
            "aero": [c.to_json() for c in aero],
            "summary": {
                "feasibility": _summarize(feasibility),
                "geometry": _summarize(geometry),
                "aero": _summarize(aero),
            },
            "data_quality_notes": notes,
        },
        "llm_report": dict(llm_report) if llm_report is not None else dict(LLM_REPORT_SKIPPED),
        "trace": {"pipeline_version": BUNDLE_VERSION},
        "provenance": {},
    }
    # What jsonschema.validate raises, without re-checking the schema.
    error = jsonschema.exceptions.best_match(_bundle_validator().iter_errors(bundle))
    if error is not None:
        raise error
    return bundle


def worst_status(bundle: Mapping[str, Any]) -> str:
    """The most severe status across all tiers of an assembled bundle."""
    order = {
        STATUS_OK: 0,
        STATUS_MISSING: 1,
        STATUS_WARNING: 2,
        STATUS_ISSUE: 3,
        STATUS_ERROR: 4,
    }
    worst = STATUS_OK
    eb = bundle["evidence_bundle"]
    for tier in ("feasibility", "geometry", "aero"):
        for check in eb[tier]:
            if order[check["status"]] > order[worst]:
                worst = check["status"]
    return worst
