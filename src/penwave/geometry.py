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
``boundary_curve`` is the one scalar routine: its root comes from ``_brent``, a
Brent iteration in this module, so the module needs numpy only.
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

_XTOL = 1e-13  # absolute tolerance on the root of boundary_curve


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


def _brent(f, xpre: float, xcur: float, xtol: float, rtol: float) -> float:
    """Root of f in the bracket [xpre, xcur] by Brent's method (Brent 1973, ch. 4).

    Runs scipy's ``brentq.c`` step for step, so every root matches ``brentq``
    bit for bit.  Raises ConvergenceError when the ends share a sign or after
    brentq's 100 steps.
    """
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConvergenceError(f"f({xpre}) and f({xcur}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a short enough step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(f"no root within {xtol:g} after 100 steps")


def boundary_curve(obs: ObstacleSpec, T: float) -> float:
    """Radius Phi(T) of the compactified obstacle boundary at cylinder time T.

    Solves sin R = r_b (cos T + cos R) for the unique R in (0, pi - T) by
    ``_brent`` to 1e-13.  Strictly decreasing in T on (0, pi).  T must lie in
    [0, pi) and more than about 1.05e-8 below pi: closer to the tip cos T
    rounds to -1, the residual is positive on the whole bracket, and the
    call raises DomainError.
    """
    if not 0.0 <= T < math.pi:
        raise DomainError(f"T must lie in [0, pi), got {T}")
    cos_T, r_b = math.cos(T), obs.r_b
    if cos_T == -1.0:
        raise DomainError(f"T={T} lies within 1.05e-8 of pi, where cos T rounds to -1 "
                          "and the boundary root is not representable")
    return _brent(lambda R: math.sin(R) - r_b * (cos_T + math.cos(R)),
                  1e-300, math.pi - T - 1e-14, _XTOL, 1e-15)


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
