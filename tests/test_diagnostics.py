"""Tiered design-validity checks and evidence-bundle assembly."""
import math
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerobench import diagnostics
from aerobench.diagnostics import (
    A001_WARN_REL_ERR,
    EXPECTED_IMAGE_SUFFIXES,
    G001_WARN_FRACTION,
    G002_WARN_SUM,
    G003_WARN_SCORE,
    CheckResult,
    DiagnosticInputs,
    build_evidence_bundle,
    bundle_schema,
    check_aero,
    check_bounds_and_presence,
    check_geometry,
    near_bound_fraction,
    worst_status,
)
from aerobench.space import continuous_space

TOL = 1e-9


def _by_id(checks):
    return {c.check_id: c for c in checks}


def golden_inputs(golden, car_env, artifacts=None, images=None):
    return DiagnosticInputs(
        environment=golden["environment"],
        design_id=golden["design_id"],
        space=car_env.space,
        design_params=golden["design_params"],
        metrics=golden["metrics"],
        artifacts=artifacts or {},
        images=images,
        profile=car_env.diagnostics_profile,
    )


class TestGoldenSnapshot:
    """The recorded worked example must reproduce exactly."""

    def test_geometry_tier(self, golden, car_env):
        exp = golden["expected"]
        checks = _by_id(check_geometry(golden_inputs(golden, car_env)))

        g001 = checks["G001_param_extremeness_ratio"]
        assert g001.status == "warning"
        assert g001.value["near_bound_fraction"] == pytest.approx(
            exp["near_bound_fraction"], abs=TOL
        )
        assert g001.value["near_bound_keys"] == exp["near_bound_keys"]
        assert g001.severity == pytest.approx(exp["g001_severity"], abs=TOL)

        g002 = checks["G002_combined_angle_stress"]
        assert g002.status == "warning"
        assert g002.value["combined_abs_angle_sum"] == pytest.approx(
            exp["combined_abs_angle_sum"], abs=TOL
        )
        assert g002.severity == pytest.approx(exp["g002_severity"], abs=TOL)

        g003 = checks["G003_size_width_length_coupling"]
        assert g003.status == "warning"
        assert g003.value["coupling_score"] == pytest.approx(
            exp["coupling_score"], abs=TOL
        )
        assert g003.severity == pytest.approx(exp["g003_severity"], abs=TOL)

    def test_aero_tier(self, golden, car_env, golden_artifacts):
        exp = golden["expected"]
        inputs = golden_inputs(
            golden, car_env, images=tuple(golden_artifacts["images"])
        )
        checks = _by_id(check_aero(inputs))
        a001 = checks["A001_drag_decomposition_consistency"]
        assert a001.status == "ok"
        assert a001.value["rel_err"] == pytest.approx(exp["a001_rel_err"], abs=TOL)
        assert checks["A002_cd_plausible_range"].value == pytest.approx(
            exp["cd"], abs=TOL
        )
        assert checks["A003_lift_plausible_range"].status == "ok"
        a004 = checks["A004_image_availability_signal"]
        assert a004.status == "ok"
        assert a004.value["coverage"] == 1.0

    def test_full_bundle_summary(self, golden, car_env, golden_artifacts):
        inputs = golden_inputs(
            golden,
            car_env,
            artifacts={
                "base_vtk_path": golden_artifacts["base_vtk_path"],
                "norm_stats_path": golden_artifacts["norm_stats_path"],
            },
            images=tuple(golden_artifacts["images"]),
        )
        bundle = build_evidence_bundle(inputs)
        summary = bundle["evidence_bundle"]["summary"]
        for tier, expected_counts in golden["expected"]["summary"].items():
            for status, count in expected_counts.items():
                assert summary[tier][status] == count, (tier, status)
        assert worst_status(bundle) == "warning"
        assert bundle["version"] == "0.1.0"
        assert bundle["llm_report"] == {"diagnostic_status": "skipped"}


class TestFeasibility:
    def test_value_exactly_at_bound_passes(self, car_env):
        var = car_env.space.variables[0]
        params = {var.name: var.upper}
        inputs = DiagnosticInputs(
            environment="e",
            design_id="d",
            space=car_env.space,
            design_params=params,
            metrics={},
        )
        checks = _by_id(check_bounds_and_presence(inputs))
        assert checks["F002_param_bounds_respected"].status == "ok"

    def test_value_beyond_bound_is_issue(self, car_env):
        var = car_env.space.variables[0]
        params = {var.name: var.upper + 1e-9}
        inputs = DiagnosticInputs(
            environment="e",
            design_id="d",
            space=car_env.space,
            design_params=params,
            metrics={},
        )
        checks = _by_id(check_bounds_and_presence(inputs))
        f002 = checks["F002_param_bounds_respected"]
        assert f002.status == "issue"
        assert f002.severity == 1.0
        assert f002.value["violations"][0]["key"] == var.name

    def test_missing_params_reported(self, car_env):
        inputs = DiagnosticInputs(
            environment="e",
            design_id="d",
            space=car_env.space,
            design_params={},
            metrics={},
        )
        f001 = _by_id(check_bounds_and_presence(inputs))["F001_required_params_present"]
        assert f001.status == "issue"
        assert set(f001.value["missing"]) == {
            v.name for v in car_env.space.variables
        }

    def test_absent_artifacts_are_missing_not_issue(self, car_env):
        inputs = DiagnosticInputs(
            environment="e",
            design_id="d",
            space=car_env.space,
            design_params={},
            metrics={},
        )
        checks = _by_id(check_bounds_and_presence(inputs))
        assert checks["F003_base_vtk_exists"].status == "missing"
        assert checks["F004_norm_stats_exists"].status == "missing"
        assert checks["F003_base_vtk_exists"].severity == 0.0

    def test_nonexistent_artifact_is_issue(self, car_env):
        inputs = DiagnosticInputs(
            environment="e",
            design_id="d",
            space=car_env.space,
            design_params={},
            metrics={},
            artifacts={"base_vtk_path": "/nonexistent/path.vtk"},
        )
        checks = _by_id(check_bounds_and_presence(inputs))
        assert checks["F003_base_vtk_exists"].status == "issue"

    def test_non_finite_metric_is_issue(self, golden, car_env):
        metrics = dict(golden["metrics"])
        metrics["drag"] = float("nan")
        inputs = DiagnosticInputs(
            environment="e",
            design_id="d",
            space=car_env.space,
            design_params=golden["design_params"],
            metrics=metrics,
            profile=car_env.diagnostics_profile,
        )
        f005 = _by_id(check_bounds_and_presence(inputs))["F005_metrics_finite"]
        assert f005.status == "issue"
        assert f005.value["non_finite"] == ["drag"]

    def test_compat_token_match_and_style(self, golden, car_env, golden_artifacts):
        inputs = golden_inputs(
            golden,
            car_env,
            artifacts={
                "base_vtk_path": golden_artifacts["base_vtk_path"],
                "norm_stats_path": golden_artifacts["norm_stats_path"],
            },
        )
        f006 = _by_id(check_bounds_and_presence(inputs))[
            "F006_body_style_norm_compatibility"
        ]
        # Token "vtk_E" appears in the base VTK path; style is its suffix.
        assert f006.status == "ok"
        assert f006.value["style"] == "E"

    def test_compat_token_mismatch_is_issue(self, golden, car_env):
        inputs = golden_inputs(
            golden, car_env, artifacts={"base_vtk_path": "/data/vtk_F/00000.vtk"}
        )
        f006 = _by_id(check_bounds_and_presence(inputs))[
            "F006_body_style_norm_compatibility"
        ]
        assert f006.status == "issue"


class TestNearBoundFraction:
    def test_margin_is_inclusive(self):
        space = continuous_space({"x": (0.0, 1.0)})
        frac, keys = near_bound_fraction(space, {"x": 0.05})
        assert frac == 1.0 and keys == ["x"]
        frac, keys = near_bound_fraction(space, {"x": 0.05 + 1e-12})
        assert frac == 0.0 and keys == []

    def test_non_numeric_excluded_from_denominator(self):
        space = continuous_space({"x": (0.0, 1.0), "y": (0.0, 1.0)})
        frac, keys = near_bound_fraction(space, {"x": 0.01, "y": "hello"})
        assert frac == 1.0 and keys == ["x"]

    def test_no_numeric_params_raises(self):
        space = continuous_space({"x": (0.0, 1.0)})
        with pytest.raises(ValueError):
            near_bound_fraction(space, {"x": "text"})

    def test_bad_margin_rejected(self):
        space = continuous_space({"x": (0.0, 1.0)})
        with pytest.raises(ValueError):
            near_bound_fraction(space, {"x": 0.5}, margin_ratio=0.5)


class TestSeverityInvariants:
    def test_ok_implies_zero_severity_enforced(self):
        with pytest.raises(ValueError):
            CheckResult(
                check_id="X",
                tier="t",
                status="ok",
                severity=0.5,
                message="m",
                value=None,
                threshold=None,
            )

    def test_severity_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckResult(
                check_id="X",
                tier="t",
                status="warning",
                severity=1.5,
                message="m",
                value=None,
                threshold=None,
            )

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_g001_severity_monotone_in_fraction(self, x):
        space = continuous_space({f"p{i}": (0.0, 1.0) for i in range(10)})

        def severity_at(n_near):
            params = {
                f"p{i}": (0.0 if i < n_near else 0.5) for i in range(10)
            }
            inputs = DiagnosticInputs(
                environment="e",
                design_id="d",
                space=space,
                design_params=params,
                metrics={},
            )
            return _by_id(check_geometry(inputs))[
                "G001_param_extremeness_ratio"
            ].severity

        sevs = [severity_at(n) for n in range(11)]
        assert all(a <= b for a, b in zip(sevs, sevs[1:]))
        assert all(0.0 <= s <= 1.0 for s in sevs)

    @given(st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_g002_severity_bounds_and_trigger(self, angles):
        space = continuous_space(
            {f"a{i}": (-30.0, 30.0) for i in range(len(angles))}
        )
        params = {f"a{i}": v for i, v in enumerate(angles)}
        inputs = DiagnosticInputs(
            environment="e",
            design_id="d",
            space=space,
            design_params=params,
            metrics={},
            profile={"angle_params": list(params)},
        )
        g002 = _by_id(check_geometry(inputs))["G002_combined_angle_stress"]
        total = sum(abs(v) for v in angles)
        if total > G002_WARN_SUM:
            assert g002.status == "warning"
            assert 0.0 <= g002.severity <= 1.0
        else:
            assert g002.status == "ok"
            assert g002.severity == 0.0


class TestAeroTier:
    def test_a001_warns_past_two_percent(self):
        metrics = {"drag": 100.0, "drag_pressure": 90.0, "drag_shear": 7.0}
        space = continuous_space({"x": (0.0, 1.0)})
        inputs = DiagnosticInputs(
            environment="e", design_id="d", space=space,
            design_params={"x": 0.5}, metrics=metrics,
        )
        a001 = _by_id(check_aero(inputs))["A001_drag_decomposition_consistency"]
        assert a001.status == "warning"
        assert a001.value["rel_err"] == pytest.approx(0.03)
        assert a001.severity == pytest.approx(0.5)

    def test_a002_negative_cd_warns(self):
        space = continuous_space({"x": (0.0, 1.0)})
        inputs = DiagnosticInputs(
            environment="e", design_id="d", space=space,
            design_params={"x": 0.5}, metrics={"Cd": -0.1},
        )
        a002 = _by_id(check_aero(inputs))["A002_cd_plausible_range"]
        assert a002.status == "warning"
        assert a002.severity == pytest.approx(0.1 / 1.5)

    def test_a003_huge_lift_warns(self):
        space = continuous_space({"x": (0.0, 1.0)})
        inputs = DiagnosticInputs(
            environment="e", design_id="d", space=space,
            design_params={"x": 0.5}, metrics={"lift": -300000.0},
        )
        a003 = _by_id(check_aero(inputs))["A003_lift_plausible_range"]
        assert a003.status == "warning"
        assert a003.severity == pytest.approx(0.5)

    def test_a004_partial_images(self):
        space = continuous_space({"x": (0.0, 1.0)})
        images = tuple(f"/tmp/{s}" for s in EXPECTED_IMAGE_SUFFIXES[:4])
        inputs = DiagnosticInputs(
            environment="e", design_id="d", space=space,
            design_params={"x": 0.5}, metrics={}, images=images,
        )
        a004 = _by_id(check_aero(inputs))["A004_image_availability_signal"]
        assert a004.status == "warning"
        assert a004.value["present"] == 4
        assert a004.severity == pytest.approx(2.0 / 6.0)

    def test_a004_no_list_is_missing_but_empty_list_warns(self):
        space = continuous_space({"x": (0.0, 1.0)})
        base = dict(
            environment="e", design_id="d", space=space,
            design_params={"x": 0.5}, metrics={},
        )
        a_none = _by_id(check_aero(DiagnosticInputs(**base, images=None)))
        a_empty = _by_id(check_aero(DiagnosticInputs(**base, images=())))
        assert a_none["A004_image_availability_signal"].status == "missing"
        assert a_empty["A004_image_availability_signal"].status == "warning"
        assert a_empty["A004_image_availability_signal"].severity == 1.0


class TestBundle:
    def _inputs(self, params, metrics):
        space = continuous_space({"x": (0.0, 1.0), "y": (-2.0, 2.0)})
        return DiagnosticInputs(
            environment="toy",
            design_id="d0",
            space=space,
            design_params=params,
            metrics=metrics,
        )

    def test_bundle_validates_against_schema(self):
        bundle = build_evidence_bundle(self._inputs({"x": 0.5, "y": 0.0}, {}))
        jsonschema.validate(bundle, bundle_schema())

    def test_summary_counts_match_checks(self):
        bundle = build_evidence_bundle(self._inputs({"x": 0.5, "y": 0.0}, {}))
        eb = bundle["evidence_bundle"]
        for tier in ("feasibility", "geometry", "aero"):
            tally = {}
            for check in eb[tier]:
                tally[check["status"]] = tally.get(check["status"], 0) + 1
            for status, count in eb["summary"][tier].items():
                assert count == tally.get(status, 0)

    def test_worst_status_ordering(self):
        bundle = build_evidence_bundle(self._inputs({"x": 0.5, "y": 0.0}, {}))
        # Clean design + no artifacts: nothing worse than "missing".
        assert worst_status(bundle) == "missing"
        bad = build_evidence_bundle(self._inputs({"x": 2.0, "y": 0.0}, {}))
        assert worst_status(bad) == "issue"

    def test_custom_llm_report_injected(self):
        report = {"diagnostic_status": "complete", "verdict": "plausible"}
        bundle = build_evidence_bundle(
            self._inputs({"x": 0.5, "y": 0.0}, {}), llm_report=report
        )
        assert bundle["llm_report"] == report

    @given(
        st.dictionaries(
            st.sampled_from(["x", "y"]),
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.text(max_size=5),
            ),
            max_size=2,
        ),
        st.dictionaries(
            st.sampled_from(["drag", "Cd", "lift", "drag_pressure", "drag_shear"]),
            st.floats(allow_nan=True, allow_infinity=True),
            max_size=5,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_bundle_always_schema_valid(self, params, metrics):
        clean_metrics = {
            k: v for k, v in metrics.items() if math.isfinite(v)
        } | {k: v for k, v in metrics.items() if not math.isfinite(v)}
        bundle = build_evidence_bundle(self._inputs(params, clean_metrics))
        jsonschema.validate(bundle, bundle_schema())
        assert worst_status(bundle) in ("ok", "missing", "warning", "issue", "error")


class TestBundleValidation:
    """One validator per process, and every bundle still validated in full."""

    def _inputs(self, design_id="d0"):
        space = continuous_space({"x": (0.0, 1.0), "y": (-2.0, 2.0)})
        return DiagnosticInputs(
            environment="toy",
            design_id=design_id,
            space=space,
            design_params={"x": 0.5, "y": 0.0},
            metrics={"Cd": 0.3},
        )

    @pytest.mark.parametrize(
        "report",
        [
            {"diagnostic_status": 3},
            {"diagnostic_status": None, "verdict": "x"},
            {"verdict": "no status"},
        ],
    )
    def test_invalid_report_raises_what_validate_raises(self, report):
        bundle = build_evidence_bundle(self._inputs())
        bundle["llm_report"] = dict(report)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bundle, bundle_schema())
        for _ in range(2):
            with pytest.raises(jsonschema.ValidationError) as got:
                build_evidence_bundle(self._inputs(), llm_report=report)
            assert got.value.message == expected.value.message
            assert list(got.value.path) == list(expected.value.path)
            assert list(got.value.schema_path) == list(expected.value.schema_path)
            assert got.value.validator == expected.value.validator

    def test_schema_checked_once_across_bundles(self, monkeypatch):
        cls = jsonschema.validators.validator_for(bundle_schema())
        original = cls.check_schema
        calls = []

        def counting(klass, schema, *args, **kwargs):
            calls.append(schema)
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", classmethod(counting))
        diagnostics._bundle_validator.cache_clear()
        try:
            for k in range(20):
                build_evidence_bundle(self._inputs(f"d{k}"))
            with pytest.raises(jsonschema.ValidationError):
                build_evidence_bundle(self._inputs(), llm_report={"diagnostic_status": 3})
        finally:
            diagnostics._bundle_validator.cache_clear()
        assert len(calls) == 1

    def test_mutating_returned_schema_does_not_change_validation(self):
        schema = bundle_schema()
        schema["required"].append("not_in_any_bundle")
        schema["properties"]["llm_report"]["properties"]["diagnostic_status"]["type"] = "integer"
        bundle = build_evidence_bundle(self._inputs())
        assert bundle["llm_report"] == {"diagnostic_status": "skipped"}
        assert bundle_schema() != schema
        with pytest.raises(jsonschema.ValidationError):
            build_evidence_bundle(self._inputs(), llm_report={"diagnostic_status": 3})

    def test_validator_not_built_at_import(self):
        code = (
            "import aerobench.diagnostics as d; "
            "assert d._bundle_validator.cache_info().currsize == 0"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
