"""Design-space declarations, unit-cube mapping, and sampling."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerobench.space import (
    CATEGORICAL,
    CONTINUOUS,
    DISCRETE,
    DesignPoint,
    ParamSpace,
    SpaceError,
    VariableSpec,
    continuous_space,
)
from aerobench.problems.catalog import get_environment


@pytest.fixture
def mixed_space():
    return ParamSpace(
        variables=(
            VariableSpec(name="chord", kind=CONTINUOUS, lower=0.5, upper=2.0),
            VariableSpec(name="n_engines", kind=DISCRETE, levels=(2, 3, 4)),
            VariableSpec(name="tail", kind=CATEGORICAL, levels=("conventional", "t-tail", "h-tail")),
        )
    )


class TestDeclarations:
    def test_continuous_needs_bounds(self):
        with pytest.raises(SpaceError):
            VariableSpec(name="x", kind=CONTINUOUS)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(SpaceError):
            VariableSpec(name="x", kind=CONTINUOUS, lower=2.0, upper=1.0)

    def test_levels_must_be_distinct(self):
        with pytest.raises(SpaceError):
            VariableSpec(name="k", kind=DISCRETE, levels=(1, 1, 2))

    def test_unique_names(self):
        v = VariableSpec(name="x", kind=CONTINUOUS, lower=0, upper=1)
        with pytest.raises(SpaceError):
            ParamSpace(variables=(v, v))

    def test_relaxed_dim_counts_one_hot(self, mixed_space):
        # 1 continuous + 1 discrete + 3-level categorical one-hot block
        assert mixed_space.relaxed_dim == 5

    def test_ceras_relaxed_dim(self):
        env = get_environment("ceras-fuel-mixed")
        assert env.space.relaxed_dim == 12
        env.close()


class TestRoundTrip:
    def test_normalize_denormalize_identity(self, mixed_space):
        point = DesignPoint(values={"chord": 1.1, "n_engines": 3, "tail": "t-tail"})
        u = mixed_space.normalize(point)
        back = mixed_space.denormalize(u)
        assert back.values["n_engines"] == 3
        assert back.values["tail"] == "t-tail"
        assert back.values["chord"] == pytest.approx(1.1)

    def test_discrete_level_index_normalization(self, mixed_space):
        # Levels normalize by index, not by value.
        for i, level in enumerate((2, 3, 4)):
            p = DesignPoint(values={"chord": 1.0, "n_engines": level, "tail": "t-tail"})
            assert mixed_space.normalize(p)[1] == pytest.approx(i / 2)

    def test_discrete_decode_nearest_with_lower_tie(self, mixed_space):
        # t=0.25 is equidistant between indices 0 and 1: lower index wins.
        u = np.array([0.5, 0.25, 1.0, 0.0, 0.0])
        assert mixed_space.denormalize(u).values["n_engines"] == 2
        u[1] = 0.26
        assert mixed_space.denormalize(u).values["n_engines"] == 3

    def test_categorical_argmax_lowest_tie(self, mixed_space):
        u = np.array([0.5, 0.0, 0.4, 0.4, 0.1])
        assert mixed_space.denormalize(u).values["tail"] == "conventional"

    def test_denormalize_clips_out_of_cube(self, mixed_space):
        u = np.array([1.7, -0.2, 0.0, 1.0, 0.0])
        point = mixed_space.denormalize(u)
        assert point.values["chord"] == pytest.approx(2.0)
        assert point.values["n_engines"] == 2

    def test_wrong_length_rejected(self, mixed_space):
        with pytest.raises(SpaceError):
            mixed_space.denormalize(np.zeros(3))


class TestValidation:
    def test_missing_variable(self, mixed_space):
        with pytest.raises(SpaceError):
            mixed_space.validate(DesignPoint(values={"chord": 1.0}))

    def test_unknown_variable(self, mixed_space):
        p = DesignPoint(values={"chord": 1.0, "n_engines": 2, "tail": "t-tail", "zz": 1})
        with pytest.raises(SpaceError):
            mixed_space.validate(p)

    def test_out_of_bounds(self, mixed_space):
        p = DesignPoint(values={"chord": 3.0, "n_engines": 2, "tail": "t-tail"})
        with pytest.raises(SpaceError):
            mixed_space.validate(p)

    def test_bound_values_are_inclusive(self, mixed_space):
        p = DesignPoint(values={"chord": 2.0, "n_engines": 2, "tail": "t-tail"})
        mixed_space.validate(p)

    @pytest.mark.parametrize(
        "values, message",
        [
            (
                {"chord": 1.0, "n_engines": 2, "tail": "t-tail", "zz": 1, "aa": 2},
                "unknown variables in point: ['aa', 'zz']",
            ),
            ({"chord": 1.0, "tail": "t-tail"}, "missing value for 'n_engines'"),
            ({"chord": 3.0, "n_engines": 2, "tail": "t-tail"}, "chord: value 3.0 outside [0.5, 2.0]"),
            ({"chord": 0.25, "n_engines": 2, "tail": "t-tail"}, "chord: value 0.25 outside [0.5, 2.0]"),
            ({"chord": float("nan"), "n_engines": 2, "tail": "t-tail"}, "chord: value must be finite"),
            ({"chord": float("inf"), "n_engines": 2, "tail": "t-tail"}, "chord: value must be finite"),
            ({"chord": 1.0, "n_engines": 5, "tail": "t-tail"}, "n_engines: unknown level 5"),
            ({"chord": 1.0, "n_engines": 2, "tail": "v-tail"}, "tail: unknown level 'v-tail'"),
            # the first faulty variable in declaration order is reported
            ({"chord": 3.0, "tail": "t-tail"}, "chord: value 3.0 outside [0.5, 2.0]"),
            ({"chord": 1.0, "n_engines": 7}, "n_engines: unknown level 7"),
            # only a real number is read: not text, None, a bool or an oversized int
            ({"chord": "abc", "n_engines": 2, "tail": "t-tail"}, "chord: value 'abc' is not a number"),
            ({"chord": None, "n_engines": 2, "tail": "t-tail"}, "chord: value None is not a number"),
            ({"chord": True, "n_engines": 2, "tail": "t-tail"}, "chord: value True is not a number"),
            ({"chord": 10**400, "n_engines": 2, "tail": "t-tail"}, "chord: value is too large for a float"),
            ({"chord": 1.0, "n_engines": True, "tail": "t-tail"}, "n_engines: value True is not a number"),
        ],
    )
    def test_error_messages(self, mixed_space, values, message):
        with pytest.raises(SpaceError) as exc:
            mixed_space.validate(DesignPoint(values=values))
        assert str(exc.value) == message

    def test_clip_snaps_discrete_to_nearest(self, mixed_space):
        p = DesignPoint(values={"chord": 99.0, "n_engines": 3.4, "tail": "h-tail"})
        c = mixed_space.clip(p)
        assert c.values["chord"] == 2.0
        assert c.values["n_engines"] == 3

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"chord": 1.0, "tail": "t-tail"}, "missing value for 'n_engines'"),
            ({"chord": 1.0, "n_engines": float("nan"), "tail": "t-tail"}, "n_engines: value must not be NaN"),
            ({"chord": float("nan"), "n_engines": 2, "tail": "t-tail"}, "chord: value must not be NaN"),
            ({"chord": "abc", "n_engines": 2, "tail": "t-tail"}, "chord: value 'abc' is not a number"),
            ({"chord": 1.0, "n_engines": None, "tail": "t-tail"}, "n_engines: value None is not a number"),
        ],
    )
    def test_clip_rejects(self, mixed_space, values, message):
        with pytest.raises(SpaceError) as exc:
            mixed_space.clip(DesignPoint(values=values))
        assert str(exc.value) == message

    def test_clip_reads_text_and_clamps_infinity(self, mixed_space):
        # A CSV cell is text; +inf on a discrete variable snaps to its top level.
        p = DesignPoint(values={"chord": "-inf", "n_engines": float("inf"), "tail": "h-tail"})
        assert mixed_space.clip(p).values == {"chord": 0.5, "n_engines": 4, "tail": "h-tail"}
        p = DesignPoint(values={"chord": "1.25", "n_engines": "2.6", "tail": "h-tail"})
        assert mixed_space.clip(p).values == {"chord": 1.25, "n_engines": 3, "tail": "h-tail"}


class TestSampling:
    def test_same_seed_identical(self, mixed_space):
        a = mixed_space.sample_uniform(seed=7, n=20)
        b = mixed_space.sample_uniform(seed=7, n=20)
        assert [p.values for p in a] == [p.values for p in b]

    def test_different_seeds_differ(self, mixed_space):
        a = mixed_space.sample_uniform(seed=1, n=10)
        b = mixed_space.sample_uniform(seed=2, n=10)
        assert [p.values for p in a] != [p.values for p in b]

    def test_samples_valid(self, mixed_space):
        for p in mixed_space.sample_uniform(seed=3, n=50):
            mixed_space.validate(p)

    def test_continuous_coverage(self):
        space = continuous_space({"x": (0.0, 1.0)})
        xs = [p.values["x"] for p in space.sample_uniform(seed=0, n=2000)]
        assert min(xs) < 0.05 and max(xs) > 0.95
        assert abs(np.mean(xs) - 0.5) < 0.05


class TestSerialization:
    def test_space_json_round_trip(self, mixed_space):
        data = json.loads(json.dumps(mixed_space.to_json()))
        again = ParamSpace.from_json(data)
        assert again == mixed_space

    def test_from_json_caches_layout(self, mixed_space):
        again = ParamSpace.from_json(json.loads(json.dumps(mixed_space.to_json())))
        assert again._names == ("chord", "n_engines", "tail")
        assert again._name_set == frozenset(again._names)
        assert again.relaxed_dim == 5

    def test_names_is_a_fresh_list(self, mixed_space):
        names = mixed_space.names
        names.append("extra")
        assert mixed_space.names == ["chord", "n_engines", "tail"]
        assert mixed_space.names is not mixed_space.names

    def test_design_json_round_trip(self):
        p = DesignPoint(values={"a": 1.5, "b": "x"}, name="d1")
        q = DesignPoint.from_json(json.loads(json.dumps(p.to_json())))
        assert q.values == p.values and q.name == "d1"


@given(
    u=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5)
)
@settings(max_examples=200, deadline=None)
def test_denormalize_normalize_is_projection(u):
    """denormalize then normalize then denormalize is stable (idempotent)."""
    space = ParamSpace(
        variables=(
            VariableSpec(name="c", kind=CONTINUOUS, lower=-1.0, upper=3.0),
            VariableSpec(name="d", kind=DISCRETE, levels=(0, 10, 20, 50)),
            VariableSpec(name="k", kind=CATEGORICAL, levels=("a", "b", "c")),
        )
    )
    p1 = space.denormalize(np.asarray(u))
    p2 = space.denormalize(space.normalize(p1))
    assert p1.values == p2.values


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_philox_sampling_is_seed_deterministic(seed):
    space = continuous_space({"x": (0.0, 2.0), "y": (-1.0, 1.0)})
    a = space.sample_uniform(seed=seed, n=3)
    b = space.sample_uniform(seed=seed, n=3)
    assert [p.values for p in a] == [p.values for p in b]


@st.composite
def _spaces_with_integer_bounds(draw):
    """Mixed spaces whose bounds may be ints and whose discrete levels may be floats."""
    number = st.integers(-50, 50) | st.integers(-5000, 5000).map(lambda k: k / 100)
    variables = []
    for i in range(draw(st.integers(1, 3))):
        lo, hi = sorted(draw(st.lists(number, min_size=2, max_size=2, unique_by=float)))
        variables.append(VariableSpec(name=f"c{i}", kind=CONTINUOUS, lower=lo, upper=hi))
    for i in range(draw(st.integers(0, 2))):
        levels = draw(st.lists(number, min_size=2, max_size=5, unique_by=float))
        variables.append(VariableSpec(name=f"d{i}", kind=DISCRETE, levels=tuple(levels)))
    if draw(st.booleans()):
        variables.append(VariableSpec(name="k", kind=CATEGORICAL, levels=("a", "b", "c")))
    return ParamSpace(variables=tuple(variables))


@given(space=_spaces_with_integer_bounds(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_point_clip_returns_is_valid(space, data):
    # The driver evaluates clipped warm-start designs without validating them.
    number = (
        st.floats(allow_nan=False)
        | st.integers(-(10**6), 10**6)
        | st.sampled_from([float("inf"), float("-inf"), -0.0])
    )
    text = number.map(str) | st.sampled_from(["inf", "-inf", "1e400", " 7 ", "-0"])
    values = {}
    for v in space.variables:
        if v.kind == CATEGORICAL:
            values[v.name] = data.draw(st.sampled_from(v.levels))
        else:
            values[v.name] = data.draw(number | text | st.sampled_from(v.levels or (v.lower, v.upper)))
    space.validate(space.clip(DesignPoint(values=values)))


def test_a_bool_is_not_a_discrete_level():
    with pytest.raises(SpaceError, match="discrete levels must be finite numbers"):
        VariableSpec(name="d", kind=DISCRETE, levels=(True, 2))
