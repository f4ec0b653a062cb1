"""Radial differential operators and quadrature on the cylinder R x S^3.

For radial fields v(T, R) the wave operator reduces to

    box_g v = v_TT - v_RR - (2 cos R / sin R) v_R,

the pushforward of the Minkowski time derivative is

    X = (1 + cos T cos R) d_T - sin T sin R d_R,

and their commutator satisfies the exact identity

    [box_g, X] = -2 cos R sin T box_g + 2 cos R cos T d_T + 2 sin T sin R d_R.

Two evaluation styles coexist: closed-form callables differentiated by
centered finite differences on arrays of points (for identity checks), and
masked (T, R) grid fields (for solver output).  All stencils are second
order, with one-sided second-order fallbacks at mask boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError, MaskError

__all__ = [
    "CylinderField",
    "box_g_fn",
    "field_X_fn",
    "commutator_residual",
    "intertwining_residual",
    "rows_Lp",
    "weighted_row_norms",
    "grad_fields",
    "TEST_BATTERY",
    "battery_points",
]


# ---------------------------------------------------------------------------
# closed-form coefficient functions


def _x_coeffs(T, R):
    """The (d_T, d_R) components of X at (T, R), broadcast over arrays."""
    return 1.0 + np.cos(T) * np.cos(R), -np.sin(T) * np.sin(R)


# ---------------------------------------------------------------------------
# function-based operators (centered differences of callables on point arrays)


def _centered_grad(f, T, R, h: float):
    """Centered first differences (f_T, f_R) of a callable."""
    return (f(T + h, R) - f(T - h, R)) / (2.0 * h), (f(T, R + h) - f(T, R - h)) / (2.0 * h)


def box_g_fn(f, T, R, h: float):
    """box_g of a radial callable at the points (T, R), by centered differences."""
    f0 = f(T, R)
    f_TT = (f(T + h, R) - 2.0 * f0 + f(T - h, R)) / h ** 2
    f_RR = (f(T, R + h) - 2.0 * f0 + f(T, R - h)) / h ** 2
    f_R = (f(T, R + h) - f(T, R - h)) / (2.0 * h)
    return f_TT - f_RR - 2.0 * np.cos(R) / np.sin(R) * f_R


def field_X_fn(f, T, R, h: float):
    """The pushforward time derivative X applied to a callable at the points (T, R)."""
    cT, cR = _x_coeffs(T, R)
    f_T, f_R = _centered_grad(f, T, R, h)
    return cT * f_T + cR * f_R


def commutator_residual(test, points, h: float) -> float:
    """Max defect of the commutator identity over the points, a (T, R) pair of arrays.

    Evaluates box_g(X test) - X(box_g test) - RHS by nested centered
    differences, where RHS is the closed-form right side of the identity.
    Points must stay at least 4h away from R = 0 and from |T| + R = pi.
    """
    T, R = points
    bad = (R < 4 * h) | (np.abs(T) + R > math.pi - 4 * h)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"point (T={T[i]}, R={R[i]}) too close to the singular set")
    x_of_test = lambda T, R: field_X_fn(test, T, R, h)
    box_of_test = lambda T, R: box_g_fn(test, T, R, h)
    lhs = box_g_fn(x_of_test, T, R, h) - field_X_fn(box_of_test, T, R, h)
    f_T, f_R = _centered_grad(test, T, R, h)
    rhs = (
        -2.0 * np.cos(R) * np.sin(T) * box_of_test(T, R)
        + 2.0 * np.cos(R) * np.cos(T) * f_T
        + 2.0 * np.sin(T) * np.sin(R) * f_R
    )
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def intertwining_residual(test, points, h: float) -> float:
    """Max relative defect of (box_g + 1)v = Omega^-3 box~(Omega v~) at the points, a
    (T, R) pair of arrays.

    The right side is evaluated by pulling the field back to Minkowski
    coordinates (u~ = Omega * v composed with the transform) and applying the
    flat radial wave operator u_tt - u_rr - (2/r) u_r by centered differences.
    """
    T, R = points
    inside = geometry.in_diamond(T, R)
    t, r = geometry.minkowski_coords(np.where(inside, T, 0.0), np.where(inside, R, 0.0))
    bad = ~inside | (r < 4 * h)
    if bad.any():
        i = int(np.argmax(bad))
        if not inside[i]:
            raise geometry._outside_diamond_error(T[i], R[i])
        raise DomainError(f"Minkowski preimage r = {r[i]} too close to the origin")

    def u_tilde(t, r):
        return geometry.omega_minkowski(t, r) * test(*geometry.einstein_coords(t, r))

    lhs = box_g_fn(test, T, R, h) + test(T, R)
    u0 = u_tilde(t, r)
    u_tt = (u_tilde(t + h, r) - 2 * u0 + u_tilde(t - h, r)) / h ** 2
    u_rr = (u_tilde(t, r + h) - 2 * u0 + u_tilde(t, r - h)) / h ** 2
    u_r = (u_tilde(t, r + h) - u_tilde(t, r - h)) / (2 * h)
    rhs = (u_tt - u_rr - 2.0 / r * u_r) / geometry.omega_minkowski(t, r) ** 3
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)), initial=0.0))


def battery_points(n: int = 50, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic interior sample points for the identity batteries, as (T, R) arrays.

    Points stay well inside the diamond (away from R = 0 and |T| + R = pi)
    so that all nested stencils remain valid.
    """
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        T, R = rng.uniform(0.2, 2.6), rng.uniform(0.2, 2.0)
        if T + R < math.pi - 0.1:
            points.append((T, R))
    T, R = np.array(points, float).reshape(-1, 2).T
    return T, R


#: Closed-form battery for operator identity checks, as numpy ufuncs so that
#: each entry evaluates a whole array of points at once.  All entries are
#: smooth on the closed cylinder.
TEST_BATTERY = (
    ("cosT_cos2R", lambda T, R: np.cos(T) * np.cos(R) ** 2),
    ("sinT_cosR", lambda T, R: np.sin(T) * np.cos(R)),
    ("cosT_cosR", lambda T, R: np.cos(T) * np.cos(R)),
    ("sin2T_cosR", lambda T, R: 0.5 * np.sin(2 * T) * np.cos(R)),
    ("polyT_cosR", lambda T, R: (T / math.pi) ** 2 * np.cos(R)),
)


# ---------------------------------------------------------------------------
# grid fields


@dataclass(frozen=True)
class CylinderField:
    """Radial samples v(T, R) on a rectangular (T, R) lattice with validity mask.

    ``T`` and ``R`` are 1-D uniform coordinate arrays, ``values`` has shape
    (len(T), len(R)) and ``mask`` marks nodes inside the domain (beyond the
    obstacle boundary and inside the diamond).  ``d_T`` / ``d_R`` optionally
    carry analytically assembled first derivatives (used by the energy
    monitors when present, bypassing one level of grid differencing).
    """

    T: np.ndarray
    R: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    d_T: np.ndarray | None = None
    d_R: np.ndarray | None = None
    forcing: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape != (len(self.T), len(self.R)):
            raise DomainError("values shape does not match the grid")
        if self.mask.shape != self.values.shape:
            raise DomainError("mask shape does not match the grid")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise DomainError("nonfinite values on valid nodes")

    @property
    def dT(self) -> float:
        return float(self.T[1] - self.T[0]) if len(self.T) > 1 else math.nan

    @property
    def dR(self) -> float:
        return float(self.R[1] - self.R[0]) if len(self.R) > 1 else math.nan

    def with_values(self, values: np.ndarray, mask: np.ndarray) -> "CylinderField":
        return CylinderField(T=self.T, R=self.R, values=values, mask=mask)


def _diff_axis(values: np.ndarray, mask: np.ndarray, spacing: float, axis: int):
    """Second-order first derivative on a masked grid.

    Centered where both neighbors are valid; one-sided 3-point second-order
    stencils where only one side has two valid neighbors; masked out
    otherwise.  Returns (derivative, new_mask).
    """
    v = np.moveaxis(values, axis, 0)
    m = np.moveaxis(mask, axis, 0)
    if v.shape[0] < 3:
        raise MaskError("grid too small for a second-order stencil")
    out = np.full_like(v, np.nan, dtype=float)
    ok = np.zeros_like(m)
    for at, d, neighbors in (
        (slice(1, -1), (v[2:] - v[:-2]) / (2 * spacing), m[2:] & m[:-2]),
        (slice(0, -2), (-3 * v[:-2] + 4 * v[1:-1] - v[2:]) / (2 * spacing), m[1:-1] & m[2:]),
        (slice(2, None), (3 * v[2:] - 4 * v[1:-1] + v[:-2]) / (2 * spacing), m[1:-1] & m[:-2]),
    ):  # centered, then forward and backward where the centered stencil is missing
        use = m[at] & neighbors & ~ok[at]
        out[at][use] = d[use]
        ok[at] |= use
    return np.moveaxis(out, 0, axis), np.moveaxis(ok, 0, axis)


def grad_fields(v: CylinderField) -> tuple[CylinderField, CylinderField]:
    """First-derivative fields (d_T v, d_R v), analytic if stored, grid FD otherwise."""
    if v.d_T is not None and v.d_R is not None:
        return (
            v.with_values(v.d_T, v.mask.copy()),
            v.with_values(v.d_R, v.mask.copy()),
        )
    dT, mT = _diff_axis(v.values, v.mask, v.dT, axis=0)
    dR, mR = _diff_axis(v.values, v.mask, v.dR, axis=1)
    return v.with_values(dT, mT), v.with_values(dR, mR)


# ---------------------------------------------------------------------------
# quadrature and weighted norms


def rows_Lp(values: np.ndarray, R: np.ndarray, sel: np.ndarray, p: float) -> np.ndarray:
    """(integral |v|^p 4 pi sin^2 R dR)^(1/p) of every row over its selected nodes.

    Composite trapezoid rule along the last axis: a pair of adjacent nodes
    contributes only when both are selected, so a gap splits the quadrature
    into runs and an isolated node contributes nothing.
    """
    integrand = np.where(sel, np.abs(values) ** p * 4.0 * math.pi * np.sin(R) ** 2, 0.0)
    pairs = np.where(sel[..., 1:] & sel[..., :-1], integrand[..., 1:] + integrand[..., :-1], 0.0)
    return (0.5 * (R[1] - R[0]) * pairs.sum(axis=-1)) ** (1.0 / p)


def _z_apply(values: np.ndarray, mask: np.ndarray, T: np.ndarray, spacing: float,
             axis: int) -> tuple[np.ndarray, np.ndarray]:
    d, m = _diff_axis(values, mask, spacing, axis)
    w = (math.pi - T)[:, None] ** 2
    return np.where(m, w * d, np.nan), m


def weighted_row_norms(
    v: CylinderField, order: int, rows: np.ndarray,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Slice norms of the weighted derivatives Z^alpha v, |alpha| <= order, on every given row.

    Z ranges over the envelope basis {(pi-T)^2 d_T, (pi-T)^2 d_R}, with the
    weight re-evaluated between applications; each Z^alpha v field is built
    once per call.  Returns, per derivative order, the arrays of (L^2, L^6,
    sup) slice norms over ``rows``, the first two summed over the order's
    multi-indices and the sup maximised over them.  Raises DomainError for an
    order outside 0..3 and MaskError for a row without valid nodes.
    """
    if not 0 <= order <= 3:
        raise DomainError(f"weighted derivative order {order} outside 0..3")
    empty = ~v.mask[rows].any(axis=-1)
    if empty.any():
        raise MaskError(f"row T={v.T[rows][np.argmax(empty)]} has no valid nodes")
    fields = [(v.values, v.mask)]
    out: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for k in range(order + 1):
        if k:
            fields = [
                _z_apply(vals, m, v.T, spacing, axis)
                for vals, m in fields for spacing, axis in ((v.dT, 0), (v.dR, 1))
            ]
        l2 = l6 = sup = np.zeros(len(rows))
        for vals, m in fields:
            row_vals, sel = vals[rows], m[rows]
            l2 = l2 + rows_Lp(row_vals, v.R, sel, 2.0)
            l6 = l6 + rows_Lp(row_vals, v.R, sel, 6.0)
            sup = np.maximum(sup, np.max(np.where(sel, np.abs(row_vals), 0.0), axis=-1))
        out[k] = (l2, l6, sup)
    return out
