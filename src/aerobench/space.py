"""Mixed design spaces: declarations, unit-cube normalization, and sampling.

A space is an ordered list of variable declarations. Continuous variables map
affinely onto [0, 1]; discrete variables map by level *index* (so irregular
level spacing does not distort the cube); categorical variables expand into a
one-hot block and decode by argmax with the lowest index winning ties.

The space owns the rule for a valid value: a real number, not a bool
(`as_number`), finite and inside closed bounds, or one of the levels.
`validate` raises on the first value that breaks it, `findings` lists all.
`decode` (unit-cube rows, in one pass per variable kind) and `clip` (outside
designs, whose numbers may be text) return valid points that are not checked
again; `ProblemEnvironment.evaluate_batch` validates designs from outside the
driver once, so such input raises only `SpaceError`.

Sampling uses numpy's Philox counter-based generator so that identical seeds
reproduce identical designs across platforms.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

CONTINUOUS = "continuous"
DISCRETE = "discrete"
CATEGORICAL = "categorical"

_KINDS = (CONTINUOUS, DISCRETE, CATEGORICAL)


class SpaceError(ValueError):
    """Invalid space declaration or a point that does not fit its space."""


@dataclass(frozen=True)
class VariableSpec:
    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    levels: tuple[Any, ...] | None = None
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpaceError("variable name must be non-empty")
        if self.kind not in _KINDS:
            raise SpaceError(f"unknown variable kind {self.kind!r}")
        if self.kind == CONTINUOUS:
            lo, hi = as_number(self.lower), as_number(self.upper)
            if lo is None or hi is None or not -math.inf < lo < hi < math.inf:
                raise SpaceError(f"{self.name}: continuous variable needs finite bounds, lower < upper")
            if self.levels is not None:
                raise SpaceError(f"{self.name}: continuous variable cannot have levels")
        else:
            if self.levels is None or len(self.levels) < 2:
                raise SpaceError(f"{self.name}: {self.kind} variable needs >= 2 levels")
            if len(set(self.levels)) != len(self.levels):
                raise SpaceError(f"{self.name}: levels must be distinct")
            if self.kind == DISCRETE and not all(
                x is not None and math.isfinite(x) for x in map(as_number, self.levels)
            ):
                raise SpaceError(f"{self.name}: discrete levels must be finite numbers")
            object.__setattr__(self, "levels", tuple(self.levels))

    def to_json(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.kind == CONTINUOUS:
            out["lower"] = float(self.lower)  # type: ignore[arg-type]
            out["upper"] = float(self.upper)  # type: ignore[arg-type]
        else:
            out["levels"] = list(self.levels)  # type: ignore[arg-type]
        if self.unit:
            out["unit"] = self.unit
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "VariableSpec":
        return cls(
            name=data["name"],
            kind=data["kind"],
            lower=data.get("lower"),
            upper=data.get("upper"),
            levels=tuple(data["levels"]) if "levels" in data else None,
            unit=data.get("unit", ""),
        )


@dataclass(frozen=True)
class DesignPoint:
    """A named assignment of values to every variable of some space."""

    values: Mapping[str, Any]
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def to_json(self) -> dict:
        out = dict(self.values)
        if self.name is not None:
            out["name"] = self.name
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "DesignPoint":
        values = {k: v for k, v in data.items() if k != "name"}
        return cls(values=values, name=data.get("name"))


@dataclass(frozen=True)
class ParamSpace:
    variables: tuple[VariableSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        names = tuple(v.name for v in self.variables)
        if len(set(names)) != len(names):
            raise SpaceError("variable names must be unique")
        if not self.variables:
            raise SpaceError("space must declare at least one variable")
        # The layout never changes, so every evaluation reads it from here.
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_name_set", frozenset(names))
        # Where each variable sits on the cube (a categorical one takes a
        # one-hot block), laid out once for `decode`.
        widths = [len(v.levels) if v.kind == CATEGORICAL else 1 for v in self.variables]  # type: ignore[arg-type]
        starts = np.cumsum([0] + widths).tolist()
        object.__setattr__(self, "_relaxed_dim", starts[-1])
        placed = list(zip(starts, self.variables))
        cont = [(c, v) for c, v in placed if v.kind == CONTINUOUS]
        bounds = [(v.lower, v.upper - v.lower, v.upper) for _, v in cont]
        object.__setattr__(self, "_cont_cols", _index([c for c, _ in cont]))
        object.__setattr__(self, "_cont_names", tuple(v.name for _, v in cont))
        object.__setattr__(self, "_bounds", tuple(np.array(bounds, dtype=float).reshape(-1, 3).T))
        object.__setattr__(self, "_level_vars", [(c, v) for c, v in placed if v.kind != CONTINUOUS])

    @property
    def relaxed_dim(self) -> int:
        return self._relaxed_dim

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def var(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise SpaceError(f"unknown variable {name!r}")

    # -- validation -------------------------------------------------------

    def validate(self, point: DesignPoint) -> None:
        """Raise `SpaceError` on a missing or unknown name, or on the first of `findings`."""
        for v, val in self._read(point):
            finding = _finding(v, val)
            if finding is not None:
                raise SpaceError(finding.message)

    def findings(self, values: Mapping[str, Any]) -> list[Finding]:
        """Every value in `values` that does not fit its variable, in order; other names are skipped."""
        found = [_finding(v, values[v.name]) for v in self.variables if v.name in values]
        return [f for f in found if f is not None]

    def _read(self, point: DesignPoint) -> Iterator[tuple[VariableSpec, Any]]:
        """Each variable with its value, in order; an unknown or missing name raises."""
        extra = point.values.keys() - self._name_set
        if extra:
            raise SpaceError(f"unknown variables in point: {sorted(extra)}")
        for v in self.variables:
            if v.name not in point.values:
                raise SpaceError(f"missing value for {v.name!r}")
            yield v, point.values[v.name]

    # -- unit-cube mapping -------------------------------------------------

    def normalize(self, point: DesignPoint) -> np.ndarray:
        """Map a valid point onto the unit cube; the point is not re-checked."""
        values = point.values
        out: list[float] = []
        for v in self.variables:
            val = values[v.name]
            if v.kind == CONTINUOUS:
                out.append((float(val) - v.lower) / (v.upper - v.lower))  # type: ignore[operator]
            elif v.kind == DISCRETE:
                out.append(v.levels.index(val) / (len(v.levels) - 1))  # type: ignore[union-attr,arg-type]
            else:
                block = [0.0] * len(v.levels)  # type: ignore[arg-type]
                block[v.levels.index(val)] = 1.0  # type: ignore[union-attr]
                out.extend(block)
        return np.array(out)

    def decode(self, U: np.ndarray) -> list[DesignPoint]:
        """Map unit-cube rows to points, one pass per variable kind.

        Rows are clipped to the cube first. A discrete coordinate takes the
        nearest level index, ties toward the lower index; a categorical block
        takes its argmax, the lowest index winning ties. A continuous value
        is clamped to its upper bound, which `lower + 1.0 * (upper - lower)`
        can round past. Every point is valid.
        """
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != self._relaxed_dim:
            raise SpaceError(f"expected rows of length {self._relaxed_dim}, got shape {U.shape}")
        if not np.isfinite(U).all():
            raise SpaceError("unit-cube vector must be finite")
        T = np.minimum(np.maximum(U, 0.0), 1.0)
        lo, width, hi = self._bounds
        x = np.minimum(lo + T[:, self._cont_cols] * width, hi)
        columns = dict(zip(self._cont_names, x.T.tolist()))
        # Level variables are few; a loop over rows is cheaper than numpy calls.
        for c, v in self._level_vars:
            k = len(v.levels)  # type: ignore[arg-type]
            if v.kind == DISCRETE:
                picks = [math.ceil(t * (k - 1) - 0.5) for t in T[:, c].tolist()]
            else:
                picks = [block.index(max(block)) for block in T[:, c : c + k].tolist()]
            columns[v.name] = [v.levels[i] for i in picks]  # type: ignore[index]
        values = zip(*(columns[name] for name in self._names))
        return [DesignPoint(dict(zip(self._names, vals))) for vals in values]

    def denormalize(self, u: Sequence[float]) -> DesignPoint:
        """The point of one unit-cube vector (clipped to the cube): the one-row case of `decode`."""
        return self.decode(np.asarray(u, dtype=float)[None])[0]

    # -- sampling and projection ------------------------------------------

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=seed))

    def sample_uniform(self, seed: int, n: int) -> list[DesignPoint]:
        if n < 1:
            raise SpaceError("n must be >= 1")
        rng = self.rng(seed)
        points = []
        for _ in range(n):
            values: dict[str, Any] = {}
            for v in self.variables:
                if v.kind == CONTINUOUS:
                    values[v.name] = v.lower + rng.random() * (v.upper - v.lower)  # type: ignore[operator]
                else:
                    values[v.name] = v.levels[int(rng.integers(len(v.levels)))]  # type: ignore[index]
            points.append(DesignPoint(values=values))
        return points

    def clip(self, point: DesignPoint) -> DesignPoint:
        """A point that passes `validate`, from an outside design whose numbers may be text:
        continuous values clamp (±inf too), discrete ones snap to the nearest level, earlier
        on ties; NaN, a non-number and an unknown categorical level raise."""
        values: dict[str, Any] = {}
        for v, val in self._read(point):
            if v.kind == CATEGORICAL:
                if val not in v.levels:  # type: ignore[operator]
                    raise SpaceError(f"{v.name}: unknown level {val!r}")
            else:
                try:
                    x = float(val) if isinstance(val, str) else as_number(val)
                except ValueError:
                    x = None
                if x is None:
                    raise SpaceError(_finding(v, val).message)  # type: ignore[union-attr]
                if math.isnan(x):
                    raise SpaceError(f"{v.name}: value must not be NaN")
                if v.kind == CONTINUOUS:
                    val = min(max(x, v.lower), v.upper)  # type: ignore[type-var]
                else:
                    x = min(max(x, min(v.levels)), max(v.levels))  # type: ignore[type-var,arg-type]
                    val = min(v.levels, key=lambda lv: abs(x - lv))  # type: ignore[type-var,arg-type]
            values[v.name] = val
        return DesignPoint(values=values, name=point.name)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"variables": [v.to_json() for v in self.variables]}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ParamSpace":
        return cls(variables=tuple(VariableSpec.from_json(v) for v in data["variables"]))


class Finding(NamedTuple):
    """A value that does not fit `variable`: `reason` is "non-numeric" or "unknown level",
    or None for a number outside the bounds, whose `value` is then its float."""

    variable: VariableSpec
    reason: str | None
    value: Any
    message: str


def as_number(val: Any) -> float | None:
    """`val` as a float if it is a real number, not a bool nor an int too large for a float."""
    # A float or int skips the `numbers.Real` check, which costs about ten times as much.
    if type(val) not in (float, int) and (isinstance(val, bool) or not isinstance(val, numbers.Real)):
        return None
    try:
        return float(val)
    except OverflowError:
        return None


def _finding(v: VariableSpec, val: Any) -> Finding | None:
    if v.kind != CATEGORICAL:
        x = as_number(val)
        if x is None:
            huge = isinstance(val, numbers.Integral) and not isinstance(val, bool)
            why = "is too large for a float" if huge else f"{val!r} is not a number"
            return Finding(v, "non-numeric", val, f"{v.name}: value {why}")
        if v.kind == CONTINUOUS:
            if v.lower <= x <= v.upper:  # type: ignore[operator]
                return None  # NaN and ±inf fall outside the closed bounds
            why = f"{x} outside [{v.lower}, {v.upper}]" if math.isfinite(x) else "must be finite"
            return Finding(v, None, x, f"{v.name}: value {why}")
    if val in v.levels:  # type: ignore[operator]
        return None
    return Finding(v, "unknown level", val, f"{v.name}: unknown level {val!r}")


def _index(cols: list[int]) -> slice | np.ndarray:
    """Columns as a basic slice when they are one run (cheaper to index), else an array."""
    if cols and cols == list(range(cols[0], cols[-1] + 1)):
        return slice(cols[0], cols[-1] + 1)
    return np.array(cols, dtype=int)


def continuous_space(bounds: Mapping[str, tuple[float, float]], units: Mapping[str, str] | None = None) -> ParamSpace:
    """Convenience constructor for fully continuous boxes."""
    units = units or {}
    return ParamSpace(
        variables=tuple(
            VariableSpec(name=k, kind=CONTINUOUS, lower=lo, upper=hi, unit=units.get(k, ""))
            for k, (lo, hi) in bounds.items()
        )
    )
