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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError

__all__ = [
    "MinkowskiEvent",
    "EinsteinEvent",
    "TransformResult",
    "StereoPoint",
    "ObstacleSpec",
    "FrameCoefficients",
    "to_einstein",
    "to_minkowski",
    "stereo_south",
    "kelvin",
    "frame_at",
    "omega_factor",
    "r_of",
    "in_region_B",
    "boundary_curve",
    "boundary_curve_slope",
]

_NORTH = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class MinkowskiEvent:
    """Event in Minkowski polar coordinates (t, x) with x = r * omega."""

    t: float
    r: float
    omega: tuple[float, float, float] = _NORTH

    def __post_init__(self):
        if self.r < 0:
            raise DomainError(f"radial coordinate must be nonnegative, got {self.r}")
        n = math.sqrt(sum(c * c for c in self.omega))
        if abs(n - 1.0) > 1e-12:
            raise DomainError(f"direction must be a unit vector, |omega| = {n}")


@dataclass(frozen=True)
class EinsteinEvent:
    """Event on the cylinder: T in (-pi, pi), R = distance on S^3 from the north pole."""

    T: float
    R: float

    def __post_init__(self):
        if not 0.0 <= self.R <= math.pi:
            raise DomainError(f"R must lie in [0, pi], got {self.R}")

    @property
    def in_diamond(self) -> bool:
        """True when the event lies strictly inside the open diamond |T| + R < pi."""
        return abs(self.T) + self.R < math.pi


@dataclass(frozen=True)
class TransformResult:
    einstein: EinsteinEvent
    omega_factor: float


@dataclass(frozen=True)
class StereoPoint:
    """Stereographic chart coordinates on S^3, tagged by which pole projects."""

    u: tuple[float, float, float]
    chart: str = "south"

    @property
    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.u))


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


@dataclass(frozen=True)
class FrameCoefficients:
    """Pushforward data at a Minkowski event.

    ``jac`` expresses (d_t, d_r) in the basis (d_T, d_R): row 0 holds the
    (d_T, d_R) components of the pushforward of d_t, row 1 those of d_r.
    ``omega_grad`` is (d_t Omega, d_r Omega).
    """

    jac: np.ndarray
    omega_grad: tuple[float, float]


def omega_factor(t: float, r: float) -> float:
    """Conformal factor via the rational closed form 2/sqrt((1+(t+r)^2)(1+(t-r)^2))."""
    return 2.0 / math.sqrt((1.0 + (t + r) ** 2) * (1.0 + (t - r) ** 2))


def to_einstein(ev: MinkowskiEvent) -> TransformResult:
    """Map a Minkowski event into the Einstein diamond.

    Total on valid inputs: finite Minkowski events always land strictly
    inside the diamond.
    """
    a = math.atan(ev.t + ev.r)
    b = math.atan(ev.t - ev.r)
    return TransformResult(
        einstein=EinsteinEvent(T=a + b, R=a - b),
        omega_factor=omega_factor(ev.t, ev.r),
    )


def to_minkowski(ev: EinsteinEvent) -> MinkowskiEvent:
    """Invert the compactification via tangent half-angles t +- r = tan((T +- R)/2).

    Raises
    ------
    DomainError
        If |T| + R >= pi (null infinity; the tangent blows up).
    """
    if not ev.in_diamond:
        raise DomainError(
            f"event (T={ev.T}, R={ev.R}) lies on or beyond null infinity (|T| + R >= pi)"
        )
    a = math.tan(0.5 * (ev.T + ev.R))
    b = math.tan(0.5 * (ev.T - ev.R))
    return MinkowskiEvent(t=0.5 * (a + b), r=0.5 * (a - b))


def stereo_south(ev: EinsteinEvent, omega: tuple[float, float, float] = _NORTH) -> StereoPoint:
    """South-pole stereographic chart: u = tan(R/2) * omega.

    Raises
    ------
    DomainError
        At R = pi (the south pole is not in this chart).
    """
    if ev.R >= math.pi:
        raise DomainError("south pole (R = pi) is not covered by the south chart")
    s = math.tan(0.5 * ev.R)
    return StereoPoint(u=tuple(s * c for c in omega), chart="south")


def kelvin(p: StereoPoint) -> StereoPoint:
    """Kelvin transform u -> u/|u|^2, swapping the chart tag.

    An involution: applying it twice returns the original point.

    Raises
    ------
    DomainError
        At u = 0 (the opposite pole has no image).
    """
    n2 = sum(c * c for c in p.u)
    if n2 == 0.0:
        raise DomainError("Kelvin transform undefined at the chart origin")
    other = "north" if p.chart == "south" else "south"
    return StereoPoint(u=tuple(c / n2 for c in p.u), chart=other)


def frame_at(ev: MinkowskiEvent) -> FrameCoefficients:
    """Analytic Jacobian of (t, r) -> (T, R) and the gradient of Omega.

    The Jacobian entries follow by differentiating the arctan map:

        dT/dt = 1/(1+(t+r)^2) + 1/(1+(t-r)^2) = dR/dr,
        dT/dr = 1/(1+(t+r)^2) - 1/(1+(t-r)^2) = dR/dt.

    The d_T component of the pushforward of d_t equals 1 + cos R cos T.
    The Omega gradient is (-Omega sin T cos R, -Omega cos T sin R).
    """
    p = 1.0 / (1.0 + (ev.t + ev.r) ** 2)
    q = 1.0 / (1.0 + (ev.t - ev.r) ** 2)
    dT_dt = p + q
    dT_dr = p - q
    jac = np.array([[dT_dt, dT_dr], [dT_dr, dT_dt]])

    tr = to_einstein(ev)
    T, R = tr.einstein.T, tr.einstein.R
    om = tr.omega_factor
    omega_grad = (-om * math.sin(T) * math.cos(R), -om * math.cos(T) * math.sin(R))
    return FrameCoefficients(jac=jac, omega_grad=omega_grad)


def r_of(ev: EinsteinEvent) -> float:
    """Minkowski radial coordinate r(T, R) = sin R / (cos T + cos R).

    Raises
    ------
    DomainError
        When cos T + cos R <= 0 (the event has no finite Minkowski radius).
    """
    om = math.cos(ev.T) + math.cos(ev.R)
    if om <= 0.0:
        raise DomainError(
            f"event (T={ev.T}, R={ev.R}) has cos T + cos R = {om} <= 0 (null infinity)"
        )
    return math.sin(ev.R) / om


def in_region_B(ev: EinsteinEvent, r: float) -> bool:
    """True iff the event lies in the region of Minkowski radius < r."""
    if r <= 0:
        raise DomainError(f"region radius must be positive, got {r}")
    try:
        return r_of(ev) < r
    except DomainError:
        return False


def _boundary_residual(R: float, T: float, r_b: float) -> float:
    # sign of sin R - r_b (cos T + cos R); root <=> r(T, R) = r_b
    return math.sin(R) - r_b * (math.cos(T) + math.cos(R))


def boundary_curve(obs: ObstacleSpec, T: float, xtol: float = 1e-13) -> float:
    """Radius Phi(T) of the compactified obstacle boundary at cylinder time T.

    Solves sin R / (cos T + cos R) = r_b for the unique R in (0, pi - T) by
    bracketed root finding.  Strictly decreasing in T on (0, pi).
    """
    if not 0.0 <= T < math.pi:
        raise DomainError(f"T must lie in [0, pi), got {T}")
    lo = 1e-300
    hi = math.pi - T - 1e-14
    try:
        root = brentq(_boundary_residual, lo, hi, args=(T, obs.r_b), xtol=xtol, rtol=1e-15)
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
    t = to_minkowski(EinsteinEvent(T=T, R=R)).t
    return -4.0 * t * phi / (2.0 + (t + phi) ** 2 + (t - phi) ** 2)
