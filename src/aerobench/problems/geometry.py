"""Class-shape (Kulfan) airfoil helpers for the thickness/angle constraints.

The airfoil is described by 8 upper and 8 lower polynomial shape weights, a
leading-edge modification weight, and a trailing-edge thickness. Surfaces are
y(x) = sqrt(x)(1-x) * S(x) +- x*t_te/2 + m(x) with S(x) a Bernstein expansion
of the weights and m(x) the leading-edge modification term, which is added to
both surfaces and therefore never changes the thickness distribution.
"""
from __future__ import annotations

from functools import lru_cache
from math import atan, comb, degrees

import numpy as np

from .formulas import wiggliness

N_WEIGHTS = 8
_ORDER = N_WEIGHTS - 1

UPPER_KEYS = tuple(f"u{i + 1}" for i in range(N_WEIGHTS))
LOWER_KEYS = tuple(f"l{i + 1}" for i in range(N_WEIGHTS))

# Polynomial fit of the classic 12%-thick symmetric section, stored once and
# used only as the wiggliness reference shape.
NACA0012_UPPER = (0.1718, 0.1528, 0.1632, 0.1345, 0.1568, 0.1400, 0.1566, 0.1404)
NACA0012_LOWER = tuple(-w for w in NACA0012_UPPER)


@lru_cache(maxsize=64)
def bernstein_row(x: float) -> np.ndarray:
    """Bernstein basis at x; cached (read-only) because the stations are fixed."""
    row = np.array(
        [comb(_ORDER, i) * x**i * (1.0 - x) ** (_ORDER - i) for i in range(N_WEIGHTS)]
    )
    row.flags.writeable = False
    return row


def shape_value(weights: np.ndarray, x: float) -> float:
    return float(np.dot(weights, bernstein_row(x)))


def trailing_wedge_angle_deg(upper: np.ndarray, lower: np.ndarray, t_te: float) -> float:
    """Opening angle between the surface tangents at the trailing edge."""
    su = shape_value(upper, 1.0)
    sl = shape_value(lower, 1.0)
    return degrees(atan(su - 0.5 * t_te) - atan(sl + 0.5 * t_te))


def leading_edge_angle_deg(upper: np.ndarray, lower: np.ndarray) -> float:
    """Angle between the surface tangents at the leading edge.

    With the square-root class function both tangents are vertical whenever
    the first upper weight is positive and the first lower weight negative,
    giving the nominal 180 degrees; sign-flipped leading weights collapse the
    nose and reduce the angle proportionally.
    """
    deficiency = max(0.0, -float(upper[0])) + max(0.0, float(lower[0]))
    return 180.0 - 60.0 * deficiency


def surface_weights(values: dict) -> tuple[np.ndarray, np.ndarray]:
    upper = np.array([float(values[k]) for k in UPPER_KEYS])
    lower = np.array([float(values[k]) for k in LOWER_KEYS])
    return upper, lower


@lru_cache(maxsize=1)
def reference_wiggliness() -> float:
    return wiggliness([NACA0012_UPPER, NACA0012_LOWER])
