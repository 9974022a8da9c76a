"""Tiered design-validity checks and evidence-bundle assembly."""
import dataclasses
import math

import jsonschema
import numpy as np
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
from aerobench.problems.catalog import get_environment, task_ids
from aerobench.space import DesignPoint, SpaceError, continuous_space

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


class TestGeometryInputs:
    @pytest.mark.parametrize(
        "bad", ["abc", None, [1.0], 10**400], ids=["text", "null", "list", "huge-int"]
    )
    @pytest.mark.parametrize(
        "key, check_id",
        [
            ("ramp_angle", "G002_combined_angle_stress"),
            ("car_size", "G003_size_width_length_coupling"),
            ("car_len", "G003_size_width_length_coupling"),
        ],
    )
    def test_non_numeric_param_reads_missing(self, golden, car_env, key, check_id, bad):
        inputs = golden_inputs(golden, car_env)
        params = {**inputs.design_params, key: bad}
        bundle = build_evidence_bundle(dataclasses.replace(inputs, design_params=params))
        geometry = {c["check_id"]: c for c in bundle["evidence_bundle"]["geometry"]}
        assert geometry[check_id]["status"] == "missing"
        assert key in geometry[check_id]["message"]
        f002 = bundle["evidence_bundle"]["feasibility"][1]
        assert f002["value"]["violations"] == [
            {"key": key, "value": bad, "reason": "non-numeric"}
        ]
        assert worst_status(bundle) == "issue"


# Every kind of value a design file can hold, for one variable.
_ANY_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**6), 10**6),
    st.just(10**400),
    st.booleans(),
    st.floats(-50.0, 50.0).map(repr),
    st.sampled_from(["0.8", "inf", "nan", "1e400", " 2 "]),
    st.text(max_size=4),
    st.none(),
    st.lists(st.floats(-1.0, 1.0), max_size=2),
)


class TestOneValueRule:
    """F002 and `ParamSpace.validate` read a design value by the same rule."""

    @pytest.mark.parametrize("task_id", ["car-drag-single", "ceras-fuel-mixed"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_f002_lists_a_value_exactly_when_validate_rejects_it(self, golden, task_id, data):
        env = get_environment(task_id)
        space = env.space
        designs = [p.values for p in space.sample_uniform(seed=5, n=3)]
        if task_id == "car-drag-single":
            designs.append(golden["design_params"])
        design = data.draw(st.sampled_from(designs))
        var = data.draw(st.sampled_from(space.variables))
        levels = [lv for v in space.variables if v.levels for lv in v.levels]
        value = data.draw(_ANY_VALUE | st.sampled_from(levels) if levels else _ANY_VALUE)
        params = {**design, var.name: value}
        try:
            space.validate(DesignPoint.from_json(params))
            rejected = []
        except SpaceError:
            rejected = [var.name]
        inputs = DiagnosticInputs(
            environment=task_id, design_id="d", space=space, design_params=params, metrics={}
        )
        f002 = _by_id(check_bounds_and_presence(inputs))["F002_param_bounds_respected"]
        assert [v["key"] for v in f002.value["violations"]] == rejected

    @pytest.mark.parametrize("bad", [True, "0.8"], ids=["bool", "numeric-text"])
    def test_bool_and_numeric_text_are_not_numbers(self, golden, car_env, bad):
        inputs = golden_inputs(golden, car_env)
        params = {**inputs.design_params, "car_size": bad}
        bundle = build_evidence_bundle(dataclasses.replace(inputs, design_params=params))
        f002 = bundle["evidence_bundle"]["feasibility"][1]
        assert f002["value"]["violations"] == [
            {"key": "car_size", "value": bad, "reason": "non-numeric"}
        ]
        g003 = bundle["evidence_bundle"]["geometry"][2]
        assert g003["check_id"] == "G003_size_width_length_coupling"
        assert g003["status"] == "missing" and "car_size" in g003["message"]
        # G001 leaves the value out of its denominator (it is at its bound).
        assert "car_size" in near_bound_fraction(car_env.space, inputs.design_params)[1]
        fraction, keys = near_bound_fraction(car_env.space, params)
        assert "car_size" not in keys
        assert fraction == len(keys) / (len(car_env.space.variables) - 1)


class TestSeverityInvariants:
    def test_ok_implies_zero_severity_enforced(self):
        with pytest.raises(ValueError):
            CheckResult(
                check_id="X",
                tier="feasibility",
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
                tier="feasibility",
                status="warning",
                severity=1.5,
                message="m",
                value=None,
                threshold=None,
            )

    _CHECK = dict(
        check_id="F001_bounds", tier="feasibility", status="warning", severity=0.5,
        message="m", value=None, threshold=None, evidence_refs=("d0.json",),
    )

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("check_id", 5),
            ("tier", "aerodynamics"),
            ("status", "fine"),
            ("severity", True),
            ("severity", "0.5"),
            ("severity", np.float64(2.0)),
            ("severity", -0.5),
            ("message", None),
            ("evidence_refs", "abc"),
            ("evidence_refs", ["d0.json", 1]),
        ],
        ids=[
            "check_id-int", "tier-unknown", "status-unknown", "severity-bool",
            "severity-text", "severity-numpy-above-one", "severity-negative",
            "message-none", "evidence_refs-string", "evidence_refs-non-string-item",
        ],
    )
    def test_a_check_the_schema_refuses_is_refused(self, field, bad):
        """With no run-time schema check, `CheckResult` is what keeps every
        check of a bundle inside the schema's `check` definition."""
        validator = jsonschema.Draft7Validator(bundle_schema()["definitions"]["check"])
        good = CheckResult(**self._CHECK).to_json()
        assert validator.is_valid(good)
        assert not validator.is_valid({**good, field: bad})
        with pytest.raises(ValueError):
            CheckResult(**{**self._CHECK, field: bad})

    def test_evidence_ref_list_is_stored_as_a_tuple(self):
        check = CheckResult(**{**self._CHECK, "evidence_refs": ["d0.json"]})
        assert check.evidence_refs == ("d0.json",)
        assert check.to_json()["evidence_refs"] == ["d0.json"]

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

    def test_bool_metric_is_not_a_number(self, golden, car_env):
        # JSON `true` is an int to Python; it must not read as Cd = 1.0.
        inputs = dataclasses.replace(
            golden_inputs(golden, car_env), metrics={**golden["metrics"], "Cd": True}
        )
        f005 = _by_id(check_bounds_and_presence(inputs))["F005_metrics_finite"]
        assert f005.status == "issue"
        assert f005.value == {"missing": [], "non_finite": ["Cd"]}
        assert _by_id(check_aero(inputs))["A002_cd_plausible_range"].status == "missing"

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


class TestMalformedInputs:
    """The library refuses what `aerobench diagnose` refuses, before any check.

    `llm_report` and `timestamp_utc` are arguments of `build_evidence_bundle`;
    every other key is a `DiagnosticInputs` field.
    """

    @staticmethod
    def _inputs(**given):
        fields = dict(
            environment="toy", design_id="d0", space=continuous_space({"x": (0.0, 1.0)}),
            design_params={"x": 0.5}, metrics={},
        )
        return DiagnosticInputs(**{**fields, **given})

    @pytest.mark.parametrize(
        "given, message",
        [
            # The eight payloads of the CLI's malformed-payload test.
            ({"metrics": [1, 2]}, "metrics must be a JSON object"),
            ({"metrics": "Cd"}, "metrics must be a JSON object"),
            ({"images": 5}, "images must be a list of strings"),
            ({"images": ["a_Pressure_iso.png", 1]}, "images must be a list of strings"),
            ({"artifacts": {"base_vtk_path": 1}}, "model_artifacts must be an object of string paths"),
            ({"artifacts": ["model/norm_stats.pt"]}, "model_artifacts must be an object of string paths"),
            ({"environment": 5}, "environment and design_id must be strings"),
            ({"design_id": ["d0"]}, "environment and design_id must be strings"),
            # A path of 0 would make F003 look at file descriptor 0.
            ({"artifacts": {"base_vtk_path": 0}}, "model_artifacts must be an object of string paths"),
            ({"artifacts": {"norm_stats_path": 99}}, "model_artifacts must be an object of string paths"),
            ({"images": [1]}, "images must be a list of strings"),
            ({"images": "a_Pressure_iso.png"}, "images must be a list of strings"),
            ({"design_params": [1]}, "design_params must be a JSON object"),
            # A string would be split into one evidence ref per character.
            ({"design_refs": "abc"}, "design_refs must be a list of strings"),
            ({"design_refs": ["d0.json", 1]}, "design_refs must be a list of strings"),
            ({"timestamp_utc": 5}, "timestamp_utc must be a string or null"),
            (
                {"llm_report": [("diagnostic_status", "complete")]},
                "llm_report must be an object with a string diagnostic_status",
            ),
            (
                {"llm_report": {"diagnostic_status": 3}},
                "llm_report must be an object with a string diagnostic_status",
            ),
            (
                {"llm_report": {"diagnostic_status": None, "verdict": "x"}},
                "llm_report must be an object with a string diagnostic_status",
            ),
            (
                {"llm_report": {"verdict": "no status"}},
                "llm_report must be an object with a string diagnostic_status",
            ),
        ],
    )
    def test_malformed_inputs_raise(self, given, message, monkeypatch):
        entered = []
        monkeypatch.setattr(diagnostics, "check_bounds_and_presence", entered.append)
        arguments = {k: v for k, v in given.items() if k in ("llm_report", "timestamp_utc")}
        fields = {k: v for k, v in given.items() if k not in arguments}
        with pytest.raises(ValueError, match=message):
            build_evidence_bundle(self._inputs(**fields), **arguments)
        assert entered == []

    def test_image_list_is_stored_as_a_tuple(self):
        inputs = self._inputs(images=["a.png"], artifacts={"base_vtk_path": None})
        assert inputs.images == ("a.png",)
        build_evidence_bundle(inputs)

    def test_design_ref_list_is_stored_as_a_tuple(self):
        inputs = self._inputs(design_refs=["d0.json"])
        assert inputs.design_refs == ("d0.json",)
        f001 = build_evidence_bundle(inputs)["evidence_bundle"]["feasibility"][0]
        assert f001["evidence_refs"] == ["d0.json"]


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
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bundle_always_schema_valid(self, car_env, params, metrics, data):
        clean_metrics = {
            k: v for k, v in metrics.items() if math.isfinite(v)
        } | {k: v for k, v in metrics.items() if not math.isfinite(v)}
        bundle = build_evidence_bundle(self._inputs(params, clean_metrics))
        jsonschema.validate(bundle, bundle_schema())
        assert worst_status(bundle) in ("ok", "missing", "warning", "issue", "error")

        # The car task's profile runs G002/G003 on its angle, scale, width
        # and length parameters, which may be non-numeric too.
        profile = car_env.diagnostics_profile
        checked = {
            *profile["angle_params"],
            profile["scale_param"],
            profile["width_param"],
            profile["length_param"],
        }
        any_value = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=5), st.none()
        )
        car_params = data.draw(
            st.fixed_dictionaries(
                {
                    v.name: any_value if v.name in checked else st.floats(v.lower, v.upper)
                    for v in car_env.space.variables
                }
            )
        )
        bundle = build_evidence_bundle(
            DiagnosticInputs(
                environment="car-drag-single",
                design_id="d0",
                space=car_env.space,
                design_params=car_params,
                metrics=clean_metrics,
                profile=profile,
            )
        )
        jsonschema.validate(bundle, bundle_schema())
        geometry = {c["check_id"]: c for c in bundle["evidence_bundle"]["geometry"]}
        if any(car_params[k] is None for k in profile["angle_params"]):
            assert geometry["G002_combined_angle_stress"]["status"] == "missing"
        if any(car_params[k] is None for k in checked - set(profile["angle_params"])):
            assert geometry["G003_size_width_length_coupling"]["status"] == "missing"
        if any(car_params[k] is None for k in checked):
            assert worst_status(bundle) == "issue"

    @given(st.sampled_from(task_ids()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_catalog_bundles_always_schema_valid(self, task_id, data):
        """A bundle from any accepted inputs matches the schema, which is
        checked nowhere else."""
        env = get_environment(task_id)
        seed = data.draw(st.integers(0, 50))
        point = data.draw(st.sampled_from(env.space.sample_uniform(seed, 3)))
        metrics = dict(env.evaluate(point).metrics)
        aero_keys = ["drag", "drag_pressure", "drag_shear", "Cd", "lift"]
        metric_keys = st.sampled_from(sorted(metrics) + aero_keys)
        for key in data.draw(st.lists(metric_keys, max_size=3)):
            metrics.pop(key, None)
        metrics.update(data.draw(st.dictionaries(
            metric_keys,
            st.floats(allow_nan=True, allow_infinity=True) | st.none() | st.text(max_size=4),
            max_size=4,
        )))
        paths = st.none() | st.text(max_size=8)
        artifacts = data.draw(st.fixed_dictionaries(
            {}, optional={"base_vtk_path": paths, "norm_stats_path": paths}
        ))
        image_names = st.text(max_size=6) | st.sampled_from(EXPECTED_IMAGE_SUFFIXES).map("sol/x_".__add__)
        images = data.draw(st.none() | st.lists(image_names, max_size=8))
        report = data.draw(st.none() | st.dictionaries(
            st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=2
        ).map(lambda extra: {**extra, "diagnostic_status": "complete"}))
        inputs = DiagnosticInputs(
            environment=task_id,
            design_id=data.draw(st.text(max_size=6)),
            space=env.space,
            design_params=dict(point.values),
            metrics=metrics,
            artifacts=artifacts,
            images=images,
            profile=env.diagnostics_profile,
            design_refs=data.draw(st.lists(st.text(max_size=6), max_size=2)),
        )
        timestamp = data.draw(st.none() | st.text(max_size=25))
        bundle = build_evidence_bundle(inputs, llm_report=report, timestamp_utc=timestamp)
        jsonschema.validate(bundle, bundle_schema())


class TestBundleValidation:
    """`bundle_schema()` is the schema every bundle matches, read afresh each call."""

    def _inputs(self):
        space = continuous_space({"x": (0.0, 1.0), "y": (-2.0, 2.0)})
        return DiagnosticInputs(
            environment="toy",
            design_id="d0",
            space=space,
            design_params={"x": 0.5, "y": 0.0},
            metrics={"Cd": 0.3},
        )

    def test_mutating_returned_schema_does_not_change_validation(self):
        schema = bundle_schema()
        schema["required"].append("not_in_any_bundle")
        schema["properties"]["llm_report"]["properties"]["diagnostic_status"]["type"] = "integer"
        bundle = build_evidence_bundle(self._inputs())
        assert bundle["llm_report"] == {"diagnostic_status": "skipped"}
        assert bundle_schema() != schema
        assert not jsonschema.Draft7Validator(schema).is_valid(bundle)
        jsonschema.validate(bundle, bundle_schema())
