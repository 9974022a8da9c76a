"""`ParamSpace.decode`: one pass per batch, valid points.

The driver decodes each proposal batch once and evaluates the points without
validating them, so decoding must give valid points by construction and the
same bits as the per-row mapping it replaced.
"""
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerobench import optimizers
from aerobench.optimizers import OptimizerConfig, run_with_budget
from aerobench.problems import function_environment, get_environment, task_ids
from aerobench.space import (
    CATEGORICAL,
    CONTINUOUS,
    DISCRETE,
    DesignPoint,
    ParamSpace,
    VariableSpec,
    continuous_space,
)


def _reference_denormalize(space, u):
    """The per-row mapping `decode` replaced, kept here as the reference."""
    coords = u.tolist()
    values = {}
    i = 0
    for v in space.variables:
        if v.kind == CONTINUOUS:
            t = min(max(coords[i], 0.0), 1.0)
            values[v.name] = v.lower + t * (v.upper - v.lower)
            i += 1
        elif v.kind == DISCRETE:
            t = min(max(coords[i], 0.0), 1.0)
            idx = math.ceil(t * (len(v.levels) - 1) - 0.5)
            idx = min(max(idx, 0), len(v.levels) - 1)
            values[v.name] = v.levels[idx]
            i += 1
        else:
            block = coords[i : i + len(v.levels)]
            values[v.name] = v.levels[block.index(max(block))]
            i += len(block)
    return DesignPoint(values=values)


def _seeded_rows(dim, seed):
    """Interior, face, corner, level-tie and out-of-cube rows."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    interior = rng.random((40, dim))
    faces = rng.random((40, dim))
    faces[np.arange(40), rng.integers(dim, size=40)] = rng.integers(2, size=40)
    corners = rng.integers(2, size=(40, dim)).astype(float)
    # Multiples of 1/24 put discrete coordinates halfway between levels.
    ties = rng.integers(25, size=(40, dim)) / 24
    outside = rng.uniform(-0.3, 1.3, size=(40, dim))
    return np.vstack([interior, faces, corners, ties, outside, np.zeros(dim), np.ones(dim)])


@pytest.mark.parametrize("task_id", task_ids())
def test_decode_matches_the_per_row_mapping_bit_for_bit(task_id):
    space = get_environment(task_id).space
    U = _seeded_rows(space.relaxed_dim, seed=17)
    points = space.decode(U)
    assert len(points) == len(U)
    for u, point in zip(U, points):
        # The driver clipped each row to the cube before mapping it.
        reference = _reference_denormalize(space, np.clip(u, 0.0, 1.0))
        assert list(point.values) == list(reference.values)
        for name, expected in reference.values.items():
            got = point.values[name]
            assert type(got) is type(expected), (name, got, expected)
            if isinstance(expected, float):
                assert got.hex() == expected.hex(), (name, got, expected)
            else:
                assert got == expected, name


_two_decimals = st.integers(-999, 999).map(lambda k: k / 100)


@st.composite
def _mixed_spaces(draw):
    variables = []
    for i in range(draw(st.integers(1, 4))):
        lo, hi = sorted(draw(st.lists(_two_decimals, min_size=2, max_size=2, unique=True)))
        variables.append(VariableSpec(name=f"c{i}", kind=CONTINUOUS, lower=lo, upper=hi))
    for i in range(draw(st.integers(0, 2))):
        levels = draw(st.lists(_two_decimals, min_size=2, max_size=5, unique=True))
        variables.append(VariableSpec(name=f"d{i}", kind=DISCRETE, levels=tuple(levels)))
    for i in range(draw(st.integers(0, 2))):
        n = draw(st.integers(2, 4))
        variables.append(
            VariableSpec(name=f"k{i}", kind=CATEGORICAL, levels=tuple(f"l{j}" for j in range(n)))
        )
    order = draw(st.permutations(range(len(variables))))
    return ParamSpace(variables=tuple(variables[j] for j in order))


@given(space=_mixed_spaces(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_cube_row_decodes_to_a_valid_point(space, data):
    coordinate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    drawn = data.draw(
        st.lists(
            st.lists(coordinate, min_size=space.relaxed_dim, max_size=space.relaxed_dim),
            min_size=1,
            max_size=6,
        )
    )
    dim = space.relaxed_dim
    U = np.vstack([np.array(drawn), np.zeros(dim), np.ones(dim)])
    for point in space.decode(U):
        space.validate(point)


def _outside_value(v):
    """Any value `clip` accepts for variable `v`, inside its bounds or not."""
    if v.kind == CATEGORICAL:
        return st.sampled_from(v.levels)
    edges = [v.lower, v.upper] if v.kind == CONTINUOUS else list(v.levels)
    return st.floats(allow_nan=False) | st.sampled_from(edges)


@given(space=_mixed_spaces(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_warm_start_row_a_method_is_handed_lies_in_the_cube(space, data):
    # Methods do not clip warm-start rows: the driver's rows of clipped designs are in [0, 1].
    designs = data.draw(
        st.lists(
            st.fixed_dictionaries({v.name: _outside_value(v) for v in space.variables}),
            min_size=1,
            max_size=4,
        )
    )
    handed = []

    def run(dim, rng, warm, budget, warn):
        handed.extend(u for u, _ in warm)
        return
        yield

    fake = types.SimpleNamespace(DEFAULTS={}, check=lambda space: None, run=run)
    env = function_environment(space, lambda u: 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(optimizers._METHODS, "pso", fake)
        warm = [DesignPoint(values) for values in designs]
        run_with_budget(env, OptimizerConfig(method="pso", budget=len(warm) + 1, seed=0), warm)
    assert len(handed) == len(designs)
    for u in handed:
        assert u.shape == (space.relaxed_dim,)
        assert np.all((u >= 0.0) & (u <= 1.0)), u


@pytest.mark.parametrize("method", ["cmaes", "pso", "lbfgsb", "evolve"])
def test_upper_bound_that_rounds_past_does_not_crash_a_run(method):
    # -1.59 + 1.0 * (3.6 - -1.59) rounds to 3.6000000000000005.
    space = continuous_space({"x": (-1.59, 3.6)})
    assert -1.59 + 1.0 * (3.6 - -1.59) > 3.6
    assert space.denormalize(np.ones(1)).values["x"] == 3.6
    env = function_environment(space, lambda u: float((u[0] - 0.9) ** 2))
    traj = run_with_budget(env, OptimizerConfig(method=method, budget=200, seed=0))
    assert len(traj) == 200
    assert all(r.error is None for r in traj.records)
