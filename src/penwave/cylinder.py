"""Radial differential operators and quadrature on the cylinder R x S^3.

For radial fields v(T, R) the wave operator reduces to

    box_g v = v_TT - v_RR - (2 cos R / sin R) v_R,

the pushforward of the Minkowski time derivative is

    X = (1 + cos T cos R) d_T - sin T sin R d_R,

and their commutator satisfies the exact identity

    [box_g, X] = -2 cos R sin T box_g + 2 cos R cos T d_T + 2 sin T sin R d_R.

Two evaluation styles coexist: closed-form callables differentiated by
centered finite differences (for identity checks at chosen points), and
masked (T, R) grid fields (for solver output).  All stencils are second
order, with one-sided second-order fallbacks at mask boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DomainError, MaskError

__all__ = [
    "CylinderField",
    "WeightedDerivativeSpec",
    "a_coeff",
    "box_g_fn",
    "field_X_fn",
    "box_g_radial",
    "field_X",
    "commutator_residual",
    "intertwining_residual",
    "slice_L2",
    "slice_Lp",
    "rows_Lp",
    "weighted_norms",
    "weighted_row_norms",
    "grad_fields",
    "TEST_BATTERY",
    "battery_points",
]


# ---------------------------------------------------------------------------
# closed-form coefficient functions


def a_coeff(T: float, R: float) -> float:
    """The degenerate-direction coefficient sin^2 T sin^2 R / (1 + cos T cos R)^2.

    Raises DomainError when the denominator vanishes (corner points only).
    """
    den = 1.0 + math.cos(T) * math.cos(R)
    if den <= 0.0:
        raise DomainError(f"1 + cos T cos R = {den} <= 0 at (T={T}, R={R})")
    return (math.sin(T) * math.sin(R)) ** 2 / den ** 2


def _x_coeffs(T: float, R: float) -> tuple[float, float]:
    return 1.0 + math.cos(T) * math.cos(R), -math.sin(T) * math.sin(R)


# ---------------------------------------------------------------------------
# function-based operators (centered differences of callables)


def box_g_fn(f, T: float, R: float, h: float) -> float:
    """box_g of a radial callable at a point, by centered differences."""
    f0 = f(T, R)
    f_TT = (f(T + h, R) - 2.0 * f0 + f(T - h, R)) / h ** 2
    f_RR = (f(T, R + h) - 2.0 * f0 + f(T, R - h)) / h ** 2
    f_R = (f(T, R + h) - f(T, R - h)) / (2.0 * h)
    return f_TT - f_RR - 2.0 * math.cos(R) / math.sin(R) * f_R


def field_X_fn(f, T: float, R: float, h: float) -> float:
    """The pushforward time derivative X applied to a callable at a point."""
    cT, cR = _x_coeffs(T, R)
    f_T = (f(T + h, R) - f(T - h, R)) / (2.0 * h)
    f_R = (f(T, R + h) - f(T, R - h)) / (2.0 * h)
    return cT * f_T + cR * f_R


def commutator_residual(test, points, h: float) -> float:
    """Max defect of the commutator identity over the given points.

    Evaluates box_g(X test) - X(box_g test) - RHS by nested centered
    differences, where RHS is the closed-form right side of the identity.
    Points must stay at least 4h away from R = 0 and from |T| + R = pi.
    """
    worst = 0.0
    x_of_test = lambda T, R: field_X_fn(test, T, R, h)
    box_of_test = lambda T, R: box_g_fn(test, T, R, h)
    for ev in points:
        T, R = ev.T, ev.R
        if R < 4 * h or abs(T) + R > math.pi - 4 * h:
            raise DomainError(f"point (T={T}, R={R}) too close to the singular set")
        lhs = box_g_fn(x_of_test, T, R, h) - field_X_fn(box_of_test, T, R, h)
        f_T = (test(T + h, R) - test(T - h, R)) / (2.0 * h)
        f_R = (test(T, R + h) - test(T, R - h)) / (2.0 * h)
        rhs = (
            -2.0 * math.cos(R) * math.sin(T) * box_g_fn(test, T, R, h)
            + 2.0 * math.cos(R) * math.cos(T) * f_T
            + 2.0 * math.sin(T) * math.sin(R) * f_R
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


def intertwining_residual(test, points, h: float) -> float:
    """Max relative defect of (box_g + 1)v = Omega^-3 box~(Omega v~) at the points.

    The right side is evaluated by pulling the field back to Minkowski
    coordinates (u~ = Omega * v composed with the transform) and applying the
    flat radial wave operator u_tt - u_rr - (2/r) u_r by centered differences.
    """

    def u_tilde(t, r):
        tr = geometry.to_einstein(geometry.MinkowskiEvent(t=t, r=r))
        return tr.omega_factor * test(tr.einstein.T, tr.einstein.R)

    worst = 0.0
    for ev in points:
        lhs = box_g_fn(test, ev.T, ev.R, h) + test(ev.T, ev.R)
        mk = geometry.to_minkowski(ev)
        t, r = mk.t, mk.r
        if r < 4 * h:
            raise DomainError(f"Minkowski preimage r = {r} too close to the origin")
        u0 = u_tilde(t, r)
        u_tt = (u_tilde(t + h, r) - 2 * u0 + u_tilde(t - h, r)) / h ** 2
        u_rr = (u_tilde(t, r + h) - 2 * u0 + u_tilde(t, r - h)) / h ** 2
        u_r = (u_tilde(t, r + h) - u_tilde(t, r - h)) / (2 * h)
        rhs = (u_tt - u_rr - 2.0 / r * u_r) / geometry.omega_factor(t, r) ** 3
        scale = max(1.0, abs(lhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def battery_points(n: int = 50, seed: int = 1) -> list[geometry.EinsteinEvent]:
    """Deterministic interior sample points for the identity batteries.

    Points stay well inside the diamond (away from R = 0 and |T| + R = pi)
    so that all nested stencils remain valid.
    """
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        T = rng.uniform(0.2, 2.6)
        R = rng.uniform(0.2, 2.0)
        if T + R < math.pi - 0.1:
            points.append(geometry.EinsteinEvent(T=float(T), R=float(R)))
    return points


#: Closed-form battery for operator identity checks.  All entries are smooth
#: on the closed cylinder.
TEST_BATTERY = (
    ("cosT_cos2R", lambda T, R: math.cos(T) * math.cos(R) ** 2),
    ("sinT_cosR", lambda T, R: math.sin(T) * math.cos(R)),
    ("cosT_cosR", lambda T, R: math.cos(T) * math.cos(R)),
    ("sin2T_cosR", lambda T, R: 0.5 * math.sin(2 * T) * math.cos(R)),
    ("polyT_cosR", lambda T, R: (T / math.pi) ** 2 * math.cos(R)),
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


@dataclass(frozen=True)
class WeightedDerivativeSpec:
    """Weighted-derivative request: envelope basis {(pi-T)^2 d_T, (pi-T)^2 d_R}."""

    order: int = 2

    def __post_init__(self):
        if self.order < 0:
            raise DomainError("order must be nonnegative")


def _diff_axis(values: np.ndarray, mask: np.ndarray, spacing: float, axis: int):
    """Second-order first derivative on a masked grid.

    Centered where both neighbors are valid; one-sided 3-point second-order
    stencils where only one side has two valid neighbors; masked out
    otherwise.  Returns (derivative, new_mask).
    """
    v = np.moveaxis(values, axis, 0)
    m = np.moveaxis(mask, axis, 0)
    n = v.shape[0]
    out = np.full_like(v, np.nan, dtype=float)
    ok = np.zeros_like(m)
    if n < 3:
        raise MaskError("grid too small for a second-order stencil")
    vp = np.roll(v, -1, axis=0)
    vm = np.roll(v, 1, axis=0)
    mp = np.roll(m, -1, axis=0)
    mm = np.roll(m, 1, axis=0)
    center = m & mp & mm
    center[0] = center[-1] = False
    out[center] = ((vp - vm) / (2 * spacing))[center]
    ok |= center
    # one-sided: forward  (-3 v0 + 4 v1 - v2) / 2h
    v1 = np.roll(v, -1, axis=0)
    v2 = np.roll(v, -2, axis=0)
    m1 = np.roll(m, -1, axis=0)
    m2 = np.roll(m, -2, axis=0)
    fwd = m & m1 & m2 & ~ok
    fwd[-2:] = False
    out[fwd] = ((-3 * v + 4 * v1 - v2) / (2 * spacing))[fwd]
    ok |= fwd
    v1 = np.roll(v, 1, axis=0)
    v2 = np.roll(v, 2, axis=0)
    m1 = np.roll(m, 1, axis=0)
    m2 = np.roll(m, 2, axis=0)
    bwd = m & m1 & m2 & ~ok
    bwd[:2] = False
    out[bwd] = ((3 * v - 4 * v1 + v2) / (2 * spacing))[bwd]
    ok |= bwd
    return np.moveaxis(out, 0, axis), np.moveaxis(ok, 0, axis)


def _second_diff_axis(values: np.ndarray, mask: np.ndarray, spacing: float, axis: int):
    """Centered second derivative; nodes lacking a full centered stencil are masked."""
    v = np.moveaxis(values, axis, 0)
    m = np.moveaxis(mask, axis, 0)
    out = np.full_like(v, np.nan, dtype=float)
    vp = np.roll(v, -1, axis=0)
    vm = np.roll(v, 1, axis=0)
    mp = np.roll(m, -1, axis=0)
    mm = np.roll(m, 1, axis=0)
    ok = m & mp & mm
    ok[0] = ok[-1] = False
    out[ok] = ((vp - 2 * v + vm) / spacing ** 2)[ok]
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


def box_g_radial(v: CylinderField) -> CylinderField:
    """box_g by centered differences on the grid.

    Nodes with R < 2 dR are excluded (coordinate singularity at the pole);
    nodes lacking a full centered stencil are masked in the result.  Raises
    MaskError if no valid node remains.
    """
    v_TT, m_TT = _second_diff_axis(v.values, v.mask, v.dT, axis=0)
    v_RR, m_RR = _second_diff_axis(v.values, v.mask, v.dR, axis=1)
    v_R, m_R = _diff_axis(v.values, v.mask, v.dR, axis=1)
    mask = m_TT & m_RR & m_R & (v.R[None, :] >= 2 * v.dR)
    if not mask.any():
        raise MaskError("no node carries a full box_g stencil")
    cot = np.zeros_like(v.values)
    np.divide(
        2 * np.cos(v.R)[None, :], np.sin(v.R)[None, :], out=cot,
        where=np.sin(v.R)[None, :] > 0,
    )
    out = np.where(mask, v_TT - v_RR - cot * np.where(mask, v_R, 0.0), np.nan)
    return v.with_values(out, mask)


def field_X(v: CylinderField) -> CylinderField:
    """The vector field X applied on the grid by centered differences."""
    v_T, m_T = _diff_axis(v.values, v.mask, v.dT, axis=0)
    v_R, m_R = _diff_axis(v.values, v.mask, v.dR, axis=1)
    mask = m_T & m_R
    if not mask.any():
        raise MaskError("no node carries a full X stencil")
    cT = 1.0 + np.cos(v.T)[:, None] * np.cos(v.R)[None, :]
    cR = -np.sin(v.T)[:, None] * np.sin(v.R)[None, :]
    out = np.where(mask, cT * np.where(mask, v_T, 0.0) + cR * np.where(mask, v_R, 0.0), np.nan)
    return v.with_values(out, mask)


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


def slice_Lp(row: np.ndarray, R: np.ndarray, mask_row: np.ndarray, p: float,
             region: np.ndarray | None = None) -> float:
    """(integral |v|^p 4 pi sin^2 R dR)^(1/p) over valid, region-restricted nodes."""
    sel = mask_row if region is None else mask_row & region
    return float(rows_Lp(row, R, sel, p))


def slice_L2(row: np.ndarray, R: np.ndarray, mask_row: np.ndarray,
             region: np.ndarray | None = None) -> float:
    """L^2 slice norm with the S^3 volume element, composite trapezoid rule."""
    return slice_Lp(row, R, mask_row, 2.0, region)


def _z_apply(values: np.ndarray, mask: np.ndarray, T: np.ndarray, spacing: float,
             axis: int) -> tuple[np.ndarray, np.ndarray]:
    d, m = _diff_axis(values, mask, spacing, axis)
    w = (math.pi - T)[:, None] ** 2
    return np.where(m, w * d, np.nan), m


def weighted_row_norms(
    v: CylinderField,
    spec: WeightedDerivativeSpec,
    rows: np.ndarray,
    region: np.ndarray | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Slice norms of the weighted derivatives Z^alpha v on every given row.

    Z ranges over the envelope basis {(pi-T)^2 d_T, (pi-T)^2 d_R}, with the
    weight re-evaluated between applications; each Z^alpha v field is built
    once per call.  Returns, per derivative order, the arrays of (L^2, L^6,
    sup) slice norms over ``rows``, the first two summed over the order's
    multi-indices and the sup maximised over them.  ``region`` may be a
    boolean mask of shape (len(rows), len(v.R)) restricting the norms.
    """
    if spec.order > 3:
        raise DomainError("weighted derivative order capped at 3")
    fields = [(v.values, v.mask)]
    out: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for order in range(spec.order + 1):
        if order:
            fields = [
                _z_apply(vals, m, v.T, spacing, axis)
                for vals, m in fields for spacing, axis in ((v.dT, 0), (v.dR, 1))
            ]
        l2 = l6 = sup = np.zeros(len(rows))
        for vals, m in fields:
            row_vals = vals[rows]
            sel = m[rows] if region is None else m[rows] & region
            l2 = l2 + rows_Lp(row_vals, v.R, sel, 2.0)
            l6 = l6 + rows_Lp(row_vals, v.R, sel, 6.0)
            sup = np.maximum(sup, np.max(np.where(sel, np.abs(row_vals), 0.0), axis=-1))
        out[order] = (l2, l6, sup)
    return out


def weighted_norms(
    v: CylinderField,
    spec: WeightedDerivativeSpec,
    T: float,
    region=None,
) -> dict[int, tuple[float, float, float]]:
    """Slice norms of the weighted derivatives Z^alpha v for |alpha| <= spec.order.

    Returns, per derivative order, the (L^2, L^6, sup) slice norms of
    ``weighted_row_norms`` at the grid row nearest to T.  ``region`` may be a
    nodewise predicate region(T, R) -> bool restricting the norms.
    """
    row = int(np.argmin(np.abs(v.T - T)))
    if not v.mask[row].any():
        raise MaskError(f"row T={T} has no valid nodes")
    region_row = None
    if region is not None:
        region_row = np.array([[bool(region(v.T[row], r)) for r in v.R]])
    norms = weighted_row_norms(v, spec, np.array([row]), region_row)
    return {order: tuple(float(x[0]) for x in n) for order, n in norms.items()}
