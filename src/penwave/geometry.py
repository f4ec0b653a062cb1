"""Coordinate machinery linking Minkowski space and the Einstein diamond.

The compactifying map sends Minkowski polar coordinates (t, r) to cylinder
coordinates (T, R) on (-pi, pi) x S^3 via

    R = arctan(t + r) - arctan(t - r),
    T = arctan(t + r) + arctan(t - r),

with conformal factor

    Omega = cos T + cos R = 2 / sqrt((1 + (t+r)^2) (1 + (t-r)^2)).

Everything here is radial: the angular variable is carried along untouched,
so the public API works on (t, r) <-> (T, R) pairs.  All operations are pure
functions of their inputs.

The closed forms are written once and broadcast over arrays of any shape;
``minkowski_valid`` and ``in_diamond`` mask the inputs each map is defined on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "ObstacleSpec",
    "einstein_coords",
    "minkowski_coords",
    "omega_minkowski",
    "omega_einstein",
    "frame_terms",
    "minkowski_valid",
    "in_diamond",
    "boundary_curve",
    "boundary_curve_slope",
]

_XTOL = 1e-13  # brentq's absolute tolerance on the root of boundary_curve


@dataclass(frozen=True)
class ObstacleSpec:
    """Spherical obstacle of radius r_b.

    The boundary radius must satisfy 0 < r_b < 1/4 so that the obstacle
    boundary stays inside the region where the collapse estimates apply.
    """

    r_b: float

    def __post_init__(self):
        if not 0.0 < self.r_b < 0.25:
            raise DomainError(f"r_b must lie in (0, 1/4), got {self.r_b}")


def einstein_coords(t, r):
    """Cylinder coordinates (T, R) = (a + b, a - b) with a, b = arctan(t + r), arctan(t - r)."""
    a, b = np.arctan(t + r), np.arctan(t - r)
    return a + b, a - b


def minkowski_coords(T, R):
    """Minkowski coordinates (t, r) by tangent half-angles t +- r = tan((T +- R)/2)."""
    a, b = np.tan(0.5 * (T + R)), np.tan(0.5 * (T - R))
    return 0.5 * (a + b), 0.5 * (a - b)


def omega_minkowski(t, r):
    """Conformal factor via the rational closed form 2/sqrt((1+(t+r)^2)(1+(t-r)^2))."""
    return 2.0 / np.sqrt((1.0 + (t + r) ** 2) * (1.0 + (t - r) ** 2))


def omega_einstein(T, R):
    """Conformal factor on the cylinder, cos T + cos R."""
    return np.cos(T) + np.cos(R)


def frame_terms(t, r):
    """p = 1/(1+(t+r)^2) and q = 1/(1+(t-r)^2): dT/dt = dR/dr = p + q, dT/dr = dR/dt = p - q."""
    return 1.0 / (1.0 + (t + r) ** 2), 1.0 / (1.0 + (t - r) ** 2)


def minkowski_valid(t, r):
    """Mask of the (t, r) the forward map takes: both finite and r >= 0."""
    return np.isfinite(t) & np.isfinite(r) & (r >= 0)


def in_diamond(T, R):
    """Mask of the (T, R) ``minkowski_coords`` maps: R >= 0 and |T| + R < pi, both finite."""
    return (R >= 0) & (abs(T) + R < math.pi)


def _outside_diamond_error(T, R) -> DomainError:
    """The DomainError naming the first point of (T, R) that ``in_diamond`` rejects."""
    T, R = (np.ravel(a) for a in np.broadcast_arrays(T, R))
    i = np.argmin(in_diamond(T, R))
    return DomainError(f"event (T={T[i]}, R={R[i]}) lies on or beyond null infinity "
                       f"(|T| + R >= pi)")


def _boundary_residual(R: float, T: float, r_b: float) -> float:
    # sign of sin R - r_b (cos T + cos R); root <=> r(T, R) = r_b
    return math.sin(R) - r_b * (math.cos(T) + math.cos(R))


def boundary_curve(obs: ObstacleSpec, T: float) -> float:
    """Radius Phi(T) of the compactified obstacle boundary at cylinder time T.

    Solves sin R / (cos T + cos R) = r_b for the unique R in (0, pi - T) by
    bracketed root finding.  Strictly decreasing in T on (0, pi).
    """
    if not 0.0 <= T < math.pi:
        raise DomainError(f"T must lie in [0, pi), got {T}")
    from scipy.optimize import brentq  # on first use: no other path needs scipy.optimize

    lo = 1e-300
    hi = math.pi - T - 1e-14
    try:
        root = brentq(_boundary_residual, lo, hi, args=(T, obs.r_b), xtol=_XTOL, rtol=1e-15)
    except ValueError as exc:  # pragma: no cover - bracket is sound for valid obs
        raise ConvergenceError(f"boundary root bracket failed at T={T}: {exc}") from exc
    return float(root)


def boundary_curve_slope(obs: ObstacleSpec, T: float) -> float:
    """Slope d Phi / dT of the boundary curve, by the closed form.

    The boundary curve is the image of r = phi under the arctan map, so with
    t the Minkowski time of the boundary event at cylinder time T,

        dPhi/dT = -4 t phi / ((1 + (t + phi)^2) + (1 + (t - phi)^2)),

    which vanishes at T = 0 and is strictly negative on (0, pi).
    """
    phi = obs.r_b
    if T == 0.0:
        return 0.0
    R = boundary_curve(obs, T)
    t = minkowski_coords(T, R)[0]
    return -4.0 * t * phi / (2.0 + (t + phi) ** 2 + (t - phi) ** 2)
