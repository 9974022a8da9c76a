"""Deterministic design-validity checks producing a tiered evidence bundle.

Three tiers of checks run over a (space, design, metrics, artifacts)
snapshot: feasibility (F001-F006), geometry risk (G001-G003), and
aerodynamic plausibility (A001-A004). The bundle matches the JSON schema
of `bundle_schema()` by construction: every field it constrains is built
here from inputs refused with `ValueError` when malformed, before any check
runs, so the bundle is returned without a run-time schema check. An
integrative-judge slot is reserved in the bundle but populated with a skip
marker unless an external report is injected.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .space import CONTINUOUS, ParamSpace, as_number

BUNDLE_VERSION = "0.1.0"

STATUS_OK = "ok"
STATUS_WARNING = "warning"
STATUS_ISSUE = "issue"
STATUS_ERROR = "error"
STATUS_MISSING = "missing"
_STATUSES = (STATUS_OK, STATUS_WARNING, STATUS_ISSUE, STATUS_ERROR, STATUS_MISSING)
# Least to most severe, for `worst_status`.
_STATUS_ORDER = {
    STATUS_OK: 0, STATUS_MISSING: 1, STATUS_WARNING: 2, STATUS_ISSUE: 3, STATUS_ERROR: 4
}

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


def _clamp01(x: float) -> float:
    return min(max(float(x), 0.0), 1.0)


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome. A field the schema's `check` definition would
    refuse raises ValueError; a list of evidence refs is stored as a tuple."""

    check_id: str
    tier: str
    status: str
    severity: float
    message: str
    value: Any
    threshold: Any
    evidence_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (isinstance(self.check_id, str) and isinstance(self.message, str)):
            raise ValueError("check_id and message must be strings")
        if self.tier not in _TIERS.values():
            raise ValueError(f"unknown tier {self.tier!r}")
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if isinstance(self.severity, bool) or not isinstance(self.severity, (int, float)):
            raise ValueError(f"severity {self.severity!r} is not a number")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(f"severity {self.severity} outside [0,1]")
        if self.status == STATUS_OK and self.severity != 0.0:
            raise ValueError("ok checks must have severity 0")
        object.__setattr__(self, "evidence_refs", _str_tuple(self.evidence_refs, "evidence_refs"))

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
            "metadata": {},
        }


@dataclass(frozen=True)
class DiagnosticInputs:
    """Everything the deterministic tier inspects for one design. Malformed
    inputs raise ValueError here, before any check runs; a list of images or
    of design refs is stored as a tuple."""

    environment: str
    design_id: str
    space: ParamSpace
    design_params: Mapping[str, Any]
    metrics: Mapping[str, Any]
    artifacts: Mapping[str, str | None] = field(default_factory=dict)
    # None means "no image list supplied" (A004 reports missing); an empty
    # tuple means "nothing rendered" (A004 reports zero coverage).
    images: tuple[str, ...] | None = None
    profile: Mapping[str, Any] = field(default_factory=dict)
    design_refs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.design_params, Mapping):
            raise ValueError("design_params must be a JSON object")
        if not isinstance(self.metrics, Mapping):
            raise ValueError("metrics must be a JSON object")
        if self.images is not None:
            object.__setattr__(self, "images", _str_tuple(self.images, "images"))
        if not isinstance(self.artifacts, Mapping) or not _all_str(
            p for p in self.artifacts.values() if p is not None
        ):
            raise ValueError("model_artifacts must be an object of string paths")
        if not _all_str((self.environment, self.design_id)):
            raise ValueError("environment and design_id must be strings")
        object.__setattr__(self, "design_refs", _str_tuple(self.design_refs, "design_refs"))


def _all_str(values) -> bool:
    return all(isinstance(v, str) for v in values)


def _str_tuple(values: Any, name: str) -> tuple[str, ...]:
    """`values` as a tuple if it is a list or tuple of strings, else ValueError."""
    if not isinstance(values, (list, tuple)) or not _all_str(values):
        raise ValueError(f"{name} must be a list of strings")
    return tuple(values)


# ---------------------------------------------------------------------------
# Check outcomes
# ---------------------------------------------------------------------------

_TIERS = {"F": "feasibility", "G": "geometry", "A": "aero"}


def _missing(
    check_id: str, message: str, threshold: Any, refs: tuple[str, ...], value: Any = None
) -> CheckResult:
    """A check whose inputs were not supplied: `missing` at severity 0."""
    return CheckResult(
        check_id, _TIERS[check_id[0]], STATUS_MISSING, 0.0, message, value, threshold, refs
    )


def _flag(
    check_id: str,
    tripped: bool,
    status: str,
    severity: float,
    ok_msg: str,
    bad_msg: str,
    value: Any,
    threshold: Any,
    refs: tuple[str, ...],
) -> CheckResult:
    """`status` at the clamped `severity` if `tripped`, else `ok` at severity 0."""
    tier = _TIERS[check_id[0]]
    if tripped:
        return CheckResult(
            check_id, tier, status, _clamp01(severity), bad_msg, value, threshold, refs
        )
    return CheckResult(check_id, tier, STATUS_OK, 0.0, ok_msg, value, threshold, refs)


# ---------------------------------------------------------------------------
# Feasibility tier (F001-F006)
# ---------------------------------------------------------------------------


def check_bounds_and_presence(inputs: DiagnosticInputs) -> list[CheckResult]:
    params = inputs.design_params
    refs = inputs.design_refs
    missing = [v.name for v in inputs.space.variables if v.name not in params]
    # The space decides what a valid value is; F002 lists every finding.
    violations = []
    for f in inputs.space.findings(params):
        v = f.variable
        why = {"reason": f.reason} if f.reason else {"lower": v.lower, "upper": v.upper}
        violations.append({"key": v.name, "value": f.value, **why})
    results = [
        _flag(
            "F001_required_params_present", bool(missing), STATUS_ISSUE, 1.0,
            "All required parameters present.",
            f"Missing required parameters: {missing}.",
            {"missing": missing}, None, refs[:1],
        ),
        _flag(
            "F002_param_bounds_respected", bool(violations), STATUS_ISSUE, 1.0,
            "All parameter values within bounds.",
            f"{len(violations)} parameter(s) violate bounds.",
            {"violations": violations}, "within configured bounds", refs,
        ),
    ]

    for check_id, key, label in (
        ("F003_base_vtk_exists", "base_vtk_path", "Base VTK"),
        ("F004_norm_stats_exists", "norm_stats_path", "Norm stats file"),
    ):
        path = inputs.artifacts.get(key)
        if path is None:
            results.append(_missing(check_id, f"{label} path not supplied.", None, ()))
        else:
            results.append(_flag(
                check_id, not os.path.exists(path), STATUS_ISSUE, 1.0,
                f"{label} exists.", f"{label} not found at the declared path.",
                path, None, (path,) if path else (),
            ))

    required_metrics = list(inputs.profile.get("required_metrics", inputs.metrics))
    metric_missing = [k for k in required_metrics if k not in inputs.metrics]
    non_finite = [
        k for k in required_metrics if k in inputs.metrics and _finite(inputs.metrics, k) is None
    ]
    results.append(_flag(
        "F005_metrics_finite", bool(metric_missing or non_finite), STATUS_ISSUE, 1.0,
        "All required metrics are finite.",
        f"Metric problems: missing {metric_missing}, non-finite {non_finite}.",
        {"missing": metric_missing, "non_finite": non_finite}, None, refs,
    ))

    # F006: opaque compatibility-token equality between the environment's
    # expected token and the provided artifact path, with the short style
    # suffix surfaced for readability.
    token = inputs.profile.get("compat_token")
    norm_path = inputs.artifacts.get("norm_stats_path", "")
    base_path = inputs.artifacts.get("base_vtk_path", "")
    value = {"style": None, "norm_stats_path": norm_path or None}
    if token is None or (not base_path and not norm_path):
        results.append(_missing(
            "F006_body_style_norm_compatibility",
            "No compatibility token declared for this environment."
            if token is None
            else "No artifacts supplied for compatibility inference.",
            None, refs, value,
        ))
    else:
        value["style"] = style = str(token).rsplit("_", 1)[-1]
        compatible = token in (base_path or "") or token in (norm_path or "")
        results.append(_flag(
            "F006_body_style_norm_compatibility", not compatible, STATUS_ISSUE, 1.0,
            f"Norm stats compatible with inferred body style '{style}'.",
            f"Artifacts do not match compatibility token '{token}'.",
            value, None, refs,
        ))
    return results


# ---------------------------------------------------------------------------
# Geometry tier (G001-G003)
# ---------------------------------------------------------------------------


def near_bound_fraction(space: ParamSpace, params: Mapping[str, Any]) -> tuple[float, list[str]]:
    """Fraction of numeric parameters within NEAR_BOUND_MARGIN_RATIO of a bound.

    A parameter counts as near-bound iff min(x - l, u - x) is at most
    NEAR_BOUND_MARGIN_RATIO times the bound range (inclusive). Entries with
    no reading by `as_number` (a free-text name, numeric text, a bool) are
    excluded from the denominator.
    """
    keys: list[str] = []
    total = 0
    for v in space.variables:
        x = as_number(params.get(v.name)) if v.kind == CONTINUOUS else None
        if x is None:
            continue
        total += 1
        margin = NEAR_BOUND_MARGIN_RATIO * (v.upper - v.lower)
        if min(x - v.lower, v.upper - x) <= margin:
            keys.append(v.name)
    if total == 0:
        raise ValueError("no numeric parameters to assess")
    return len(keys) / total, keys


def _read_floats(
    params: Mapping[str, Any], keys: Sequence[str]
) -> tuple[dict[str, float | None], list[str], list[str]]:
    """The `as_number` reading of each of `keys` in `params`, the absent keys and the non-numeric."""
    values = {k: as_number(params[k]) for k in keys if k in params}
    absent = [k for k in keys if k not in params]
    return values, absent, [k for k, x in values.items() if x is None]


def check_geometry(inputs: DiagnosticInputs) -> list[CheckResult]:
    space = inputs.space
    params = inputs.design_params
    profile = inputs.profile
    refs = inputs.design_refs

    threshold = {"warn_fraction": G001_WARN_FRACTION, "margin_ratio": NEAR_BOUND_MARGIN_RATIO}
    try:
        fraction, keys = near_bound_fraction(space, params)
    except ValueError:
        g001 = _missing(
            "G001_param_extremeness_ratio",
            "No numeric parameters available for extremeness analysis.",
            threshold, refs,
        )
    else:
        g001 = _flag(
            "G001_param_extremeness_ratio", fraction > G001_WARN_FRACTION, STATUS_WARNING,
            0.5 + 2.0 * (fraction - G001_WARN_FRACTION),
            f"Parameter extremeness acceptable ({fraction:.2f}).",
            f"High fraction of parameters near bounds ({fraction:.2f}).",
            {"near_bound_fraction": fraction, "near_bound_keys": keys}, threshold, refs,
        )

    angle_params = list(profile.get("angle_params", []))
    angles, absent, non_numeric = _read_floats(params, angle_params)
    threshold = {"warn_sum": G002_WARN_SUM}
    if not angle_params:
        g002 = _missing(
            "G002_combined_angle_stress", "No angle-type parameters declared.", threshold, refs
        )
    elif absent or non_numeric:
        why = f"missing: {absent}" if absent else f"non-numeric: {non_numeric}"
        g002 = _missing("G002_combined_angle_stress", f"Angle parameters {why}.", threshold, refs)
    else:
        angle_sum = float(sum(abs(angles[k]) for k in angle_params))
        g002 = _flag(
            "G002_combined_angle_stress", angle_sum > G002_WARN_SUM, STATUS_WARNING,
            angle_sum / (2.0 * G002_WARN_SUM),
            f"Combined angle stress acceptable ({angle_sum:.2f} deg abs-sum).",
            f"Combined angle stress is high ({angle_sum:.2f} deg abs-sum).",
            {"combined_abs_angle_sum": angle_sum}, threshold, refs,
        )

    size_keys = [profile.get(k) for k in ("scale_param", "width_param", "length_param")]
    sizes, absent, non_numeric = _read_floats(params, size_keys)
    threshold = {"warn_score": G003_WARN_SCORE}
    if not all(size_keys):
        g003 = _missing(
            "G003_size_width_length_coupling",
            "No scale/width/length parameters declared.", threshold, refs,
        )
    elif absent or non_numeric:
        why = ("Declared scale/width/length parameters missing from design." if absent
               else f"Scale/width/length parameters non-numeric: {non_numeric}.")
        g003 = _missing("G003_size_width_length_coupling", why, threshold, refs)
    else:
        scale_key, width_key, length_key = size_keys
        scale_var, width_var, length_var = (space.var(k) for k in size_keys)
        scale, width, length = (sizes[k] for k in size_keys)
        coupling = (
            abs(scale - 0.5 * (scale_var.lower + scale_var.upper))
            / (0.5 * (scale_var.upper - scale_var.lower))
            + abs(width) / (0.5 * (width_var.upper - width_var.lower))
            + abs(length) / (0.5 * (length_var.upper - length_var.lower))
        )
        g003 = _flag(
            "G003_size_width_length_coupling", coupling > G003_WARN_SCORE, STATUS_WARNING,
            coupling / G003_SEVERITY_MAX,
            "Scale/width/length coupling within expected range.",
            "Global scale + width/length coupling is aggressive; "
            "geometry realism risk increased.",
            {
                scale_key: scale,
                f"abs_{width_key}": abs(width),
                f"abs_{length_key}": abs(length),
                "coupling_score": coupling,
            },
            threshold, refs,
        )
    return [g001, g002, g003]


# ---------------------------------------------------------------------------
# Aero tier (A001-A004)
# ---------------------------------------------------------------------------


def _finite(metrics: Mapping[str, Any], key: str) -> float | None:
    # A JSON boolean is an int to Python, but it is not a metric value.
    x = as_number(metrics.get(key))
    return x if x is not None and math.isfinite(x) else None


def check_aero(inputs: DiagnosticInputs) -> list[CheckResult]:
    metrics = inputs.metrics
    refs = inputs.design_refs
    results = []

    drag = _finite(metrics, "drag")
    dp = _finite(metrics, "drag_pressure")
    ds = _finite(metrics, "drag_shear")
    threshold = {"warn_rel_err": A001_WARN_REL_ERR}
    if drag is None or dp is None or ds is None:
        results.append(_missing(
            "A001_drag_decomposition_consistency",
            "Drag decomposition metrics unavailable.", threshold, refs,
        ))
    else:
        rel_err = abs(drag - (dp + ds)) / max(abs(drag), 1e-12)
        results.append(_flag(
            "A001_drag_decomposition_consistency", rel_err > A001_WARN_REL_ERR, STATUS_WARNING,
            (rel_err - A001_WARN_REL_ERR) / A001_WARN_REL_ERR,
            f"Drag decomposition consistent (rel_err={rel_err:.5f}).",
            f"Drag decomposition inconsistent (rel_err={rel_err:.5f}).",
            {"drag": drag, "drag_pressure_plus_shear": dp + ds, "rel_err": rel_err},
            threshold, refs,
        ))

    cd = _finite(metrics, "Cd")
    lo, hi = A002_CD_RANGE
    threshold = {"min": lo, "max": hi}
    if cd is None:
        results.append(_missing(
            "A002_cd_plausible_range", "Cd metric unavailable.", threshold, refs
        ))
    else:
        excess = max(lo - cd, cd - hi, 0.0)
        results.append(_flag(
            "A002_cd_plausible_range", excess > 0.0, STATUS_WARNING, excess / hi,
            "Cd within plausible warning band.", "Cd outside plausible warning band.",
            cd, threshold, refs,
        ))

    lift = _finite(metrics, "lift")
    threshold = {"warn_abs": A003_WARN_ABS_LIFT}
    if lift is None:
        results.append(_missing(
            "A003_lift_plausible_range", "Lift metric unavailable.", threshold, refs
        ))
    else:
        excess = abs(lift) - A003_WARN_ABS_LIFT
        results.append(_flag(
            "A003_lift_plausible_range", excess > 0.0, STATUS_WARNING,
            excess / A003_WARN_ABS_LIFT,
            "Lift magnitude within plausible warning range.",
            "Lift magnitude outside plausible warning range.",
            lift, threshold, refs,
        ))

    total = len(EXPECTED_IMAGE_SUFFIXES)
    threshold = {"expected_total": total}
    if inputs.images is None:
        results.append(_missing(
            "A004_image_availability_signal", "No image list supplied.", threshold, refs
        ))
        return results
    suffix_map = {
        suffix: any(img.endswith(suffix) for img in inputs.images)
        for suffix in EXPECTED_IMAGE_SUFFIXES
    }
    present = sum(suffix_map.values())
    results.append(_flag(
        "A004_image_availability_signal", present < total, STATUS_WARNING,
        (total - present) / total,
        "All expected flow images are available.",
        "Missing flow images: " + ", ".join(s for s, ok in suffix_map.items() if not ok) + ".",
        {"present": present, "total": total, "coverage": present / total, "suffix_map": suffix_map},
        threshold, tuple(inputs.images),
    ))
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
    """Run all tiers and assemble the evidence bundle.

    A `timestamp_utc` other than a string or None, or an `llm_report` other
    than a mapping with a string `diagnostic_status`, raises ValueError
    before any check runs.
    """
    if timestamp_utc is not None and not isinstance(timestamp_utc, str):
        raise ValueError("timestamp_utc must be a string or null")
    if llm_report is None:
        llm_report = LLM_REPORT_SKIPPED
    elif not isinstance(llm_report, Mapping) or not isinstance(
        llm_report.get("diagnostic_status"), str
    ):
        raise ValueError("llm_report must be an object with a string diagnostic_status")
    feasibility = check_bounds_and_presence(inputs)
    geometry = check_geometry(inputs)
    aero = check_aero(inputs)

    notes: list[str] = []
    if not inputs.metrics:
        notes.append("No metrics supplied; aero tier reported as missing.")
    if not inputs.images:
        notes.append("No flow images supplied.")
    images = list(inputs.images or [])

    return {
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
        "llm_report": dict(llm_report),
        "trace": {"pipeline_version": BUNDLE_VERSION},
        "provenance": {},
    }


def worst_status(bundle: Mapping[str, Any]) -> str:
    """The most severe status across all tiers of an assembled bundle."""
    worst = STATUS_OK
    eb = bundle["evidence_bundle"]
    for tier in ("feasibility", "geometry", "aero"):
        for check in eb[tier]:
            if _STATUS_ORDER[check["status"]] > _STATUS_ORDER[worst]:
                worst = check["status"]
    return worst
