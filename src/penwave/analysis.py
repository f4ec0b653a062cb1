"""Decay fits and estimate certificates over solver output.

Quantitative post-processing: power-law and exponential fits of monitor
series, the weighted sup-norm decay certificate, the cylinder energy
inequality, weighted-norm boundedness reports, and vanishing-order fits for
the degenerating frame coefficients.

Boundedness claims are certified scale-free: instead of absolute constants
(none are canonical for this problem), each certificate reports a plateau
ratio -- the max/min of the windowed estimate over the tail of the series --
and the verdict thresholds that ratio.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import cylinder
from .errors import DomainError, FitError
from .solver import Trajectory

__all__ = [
    "Series",
    "FitResult",
    "DecayCertificate",
    "EnergySlackReport",
    "WeightedNormReport",
    "fit_power",
    "fit_exponential",
    "decay_certificate",
    "energy_inequality_check",
    "weighted_norm_report",
    "vanishing_order_fit",
    "structured_report",
    "write_report",
    "write_series_csv",
]

DEFAULT_SIGMA = 0.25


@dataclass(frozen=True)
class Series:
    """Monitor series (t_i, y_i): strictly increasing abscissae, finite y >= 0."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        if t.shape != y.shape or t.ndim != 1:
            raise DomainError("series abscissae and ordinates must be 1-d and aligned")
        if np.any(np.diff(t) <= 0):
            raise DomainError("series abscissae must be strictly increasing")
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise DomainError("series ordinates must be finite and nonnegative")

    def window(self, lo: float, hi: float) -> "Series":
        sel = (self.t >= lo) & (self.t <= hi)
        return Series(self.t[sel], self.y[sel])


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary; ``exponent`` holds the rate for exponential fits."""

    exponent: float
    intercept: float
    r_squared: float
    window: tuple[float, float]

    @property
    def rate(self) -> float:
        return self.exponent


def _r_squared(x, y, slope, intercept):
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-20 else 0.0
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def _select_window(series: Series, window, geometric: bool):
    if window is None:
        t0, t1 = float(series.t[0]), float(series.t[-1])
        if geometric and t0 > 0:
            lo = math.sqrt(t0 * t1)
        else:
            lo = 0.5 * (t0 + t1)
        window = (lo, t1)
    sub = series.window(*window)
    if len(sub.t) < 10:
        raise FitError(f"window {window} holds {len(sub.t)} points; need >= 10")
    return sub, (float(window[0]), float(window[1]))


def fit_power(series: Series, window: tuple[float, float] | None = None) -> FitResult:
    """Fit y = C t^p on log-log axes; returns the slope p as the exponent.

    The window defaults to the last geometric half of the series (transients
    pollute early times).  Raises FitError on degenerate windows or
    nonpositive ordinates.
    """
    sub, window = _select_window(series, window, geometric=True)
    if np.any(sub.y <= 0) or np.any(sub.t <= 0):
        raise FitError("power fit needs strictly positive t and y in the window")
    x, y = np.log(sub.t), np.log(sub.y)
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(float(slope), float(intercept), _r_squared(x, y, slope, intercept), window)


def fit_exponential(series: Series, window: tuple[float, float] | None = None) -> FitResult:
    """Fit y = C e^{-c t}; returns the decay rate c (= minus the log-linear slope)."""
    sub, window = _select_window(series, window, geometric=False)
    if np.any(sub.y <= 0):
        raise FitError("exponential fit needs strictly positive ordinates in the window")
    x, y = sub.t, np.log(sub.y)
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(float(-slope), float(intercept), _r_squared(x, y, slope, intercept), window)


@dataclass(frozen=True)
class DecayCertificate:
    """Weighted sup-norm certificate: C_sup over all sampled (t, r).

    The weight is (1+t)(1+|t-r|)^{1-sigma}; finiteness of C_sup with a tame
    plateau ratio over the tail certifies the corresponding pointwise decay
    at the sampled resolution.  band_table holds per-cone-band maxima of the
    weighted field (band b collects nodes with ||t-r| - b| <= 1/2).
    """

    sigma: float
    C_sup: float
    band_table: dict[float, float]
    plateau_ratio: float
    window: tuple[float, float]

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1.0:
            raise DomainError("sigma must lie in (0, 1]")
        for b, val in self.band_table.items():
            if val > self.C_sup + 1e-12:
                raise DomainError(f"band {b} exceeds the global sup")


def decay_certificate(traj: Trajectory, sigma: float = DEFAULT_SIGMA,
                      tail_from: float | None = None) -> DecayCertificate:
    """Sweep all stored frames and grid nodes with the decay weight.

    Returns the global weighted sup, per-cone-band maxima, and the plateau
    ratio (max/min of the per-frame weighted sup) over the tail window,
    which defaults to the last half of the stored times and can be widened
    via ``tail_from``.
    """
    if not 0.0 < sigma <= 1.0:
        raise DomainError("sigma must lie in (0, 1]")
    r = traj.r
    bands = traj.config.band_offsets
    band_max = {float(b): 0.0 for b in bands}
    frame_sup = np.zeros(len(traj.times))
    for i, t in enumerate(traj.times):
        dist = np.abs(t - r)
        weight = (1.0 + t) * (1.0 + dist) ** (1.0 - sigma)
        weighted = np.abs(traj.u_frames[i]) * weight
        frame_sup[i] = float(weighted.max())
        for b in bands:
            sel = np.abs(dist - b) <= 0.5
            if sel.any():
                band_max[float(b)] = max(band_max[float(b)], float(weighted[sel].max()))
    c_sup = float(frame_sup.max())
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    lo = 0.5 * (t0 + t1) if tail_from is None else float(tail_from)
    tail = frame_sup[traj.times >= lo]
    tail_min = float(tail.min())
    plateau = float(tail.max() / tail_min) if tail_min > 0 else math.inf
    return DecayCertificate(
        sigma=sigma, C_sup=c_sup, band_table=band_max,
        plateau_ratio=plateau, window=(lo, t1),
    )


@dataclass(frozen=True)
class EnergySlackReport:
    """Row-wise check of the conformal energy inequality.

    lhs[i] is the energy norm (L^2 of v, d_T v, d_R v in quadrature) on row
    T[i]; rhs[i] is the initial energy norm plus the time-integrated L^2 of
    the forcing up to T[i].  slack is the worst (lhs - rhs) relative to rhs;
    it cannot fall below 0 because lhs[0] == rhs[0].  headroom is the margin
    the verdict does not show: the least (rhs - lhs) relative to rhs over the
    rows after the first (inf for a single row).
    """

    T: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: float
    passed: bool
    headroom: float


def energy_inequality_check(field: cylinder.CylinderField, tol: float = 0.02) -> EnergySlackReport:
    """Evaluate the energy inequality on every covered row of a cylinder field.

    The energy norm includes the zeroth-order term (the conformal operator
    carries a unit mass term, under which the full norm is non-increasing for
    data vanishing at T = 0).  The forcing rows come from ``field.forcing``;
    absent forcing is treated as zero.
    """
    dv_T, dv_R = cylinder.grad_fields(field)
    rows = np.flatnonzero(field.mask.any(axis=1))
    if not len(rows):
        raise DomainError("field has no covered rows")
    T = field.T[rows]
    mask = field.mask[rows]
    n_v = cylinder.rows_Lp(field.values[rows], field.R, mask, 2.0)
    n_T = cylinder.rows_Lp(dv_T.values[rows], field.R, dv_T.mask[rows], 2.0)
    n_R = cylinder.rows_Lp(dv_R.values[rows], field.R, dv_R.mask[rows], 2.0)
    lhs = np.sqrt(n_v ** 2 + n_T ** 2 + n_R ** 2)
    if field.forcing is not None:
        g_norm = cylinder.rows_Lp(field.forcing[rows], field.R, mask, 2.0)
    else:
        g_norm = np.zeros(len(rows))
    # cumulative trapezoid of the forcing norm over T
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g_norm[1:] + g_norm[:-1]) * np.diff(T))])
    rhs = lhs[0] + cum
    scale = np.maximum(rhs, 1e-300)
    slack = float(np.max((lhs - rhs) / scale)) if rhs[0] > 0 or field.forcing is not None else 0.0
    if lhs[0] == 0.0 and np.all(rhs == 0.0):
        slack = float(np.max(lhs))  # zero solution: both sides vanish
    headroom = float(np.min(((rhs - lhs) / scale)[1:], initial=math.inf))
    return EnergySlackReport(T=T, lhs=lhs, rhs=rhs, slack=slack, passed=slack <= tol,
                             headroom=headroom)


@dataclass(frozen=True)
class WeightedNormReport:
    """Per-row weighted mixed norm m(T) with a tail growth verdict.

    plateau_ratio compares the maximum of m over the last third of covered
    rows against the maximum over the earlier rows.  A flat series scores
    near 1 and a blow-up scores large; a decaying tail scores below 1.  A
    max/min ratio over the tail would instead flag rapidly decaying
    solutions -- the strongest form of boundedness -- as unbounded, which is
    the opposite of what the verdict certifies.
    """

    T: np.ndarray
    m: np.ndarray
    order: int
    sigma: float
    plateau_ratio: float
    bounded: bool


def weighted_norm_report(
    field: cylinder.CylinderField,
    p: int = 2,
    sigma: float = DEFAULT_SIGMA,
    plateau_tol: float = 4.0,
) -> WeightedNormReport:
    """Per-row m(T) = sum over orders <= p of (L2 + L6 of the weighted
    derivatives) plus (pi-T)^sigma times the sup norms up to order p-1.

    Verdict "bounded" iff the m series has plateau ratio <= ``plateau_tol``
    over the last third of covered rows.
    """
    rows = np.flatnonzero(field.mask.sum(axis=1) >= 4)
    T = field.T[rows]
    norms = cylinder.weighted_row_norms(field, cylinder.WeightedDerivativeSpec(order=p), rows)
    envelope = (math.pi - T) ** sigma
    m_vals = np.zeros(len(rows))
    for order, (l2, l6, sup) in norms.items():
        m_vals += l2 + l6
        if order <= max(p - 1, 0):
            m_vals += envelope * sup
    n_tail = max(len(rows) // 3, 2)
    tail_max = float(m_vals[-n_tail:].max())
    head_max = float(m_vals[:-n_tail].max()) if len(rows) > n_tail else tail_max
    plateau = tail_max / head_max if head_max > 0 else (math.inf if tail_max > 0 else 1.0)
    return WeightedNormReport(
        T=T, m=m_vals, order=p, sigma=sigma,
        plateau_ratio=plateau, bounded=plateau <= plateau_tol,
    )


def vanishing_order_fit(samples) -> FitResult:
    """Log-log slope of |value| against distance for degenerating coefficients.

    ``samples`` is a sequence of (dist, value) pairs with geometrically
    decreasing distances.  Raises FitError on fewer than 8 samples or when a
    value underflows.
    """
    samples = list(samples)
    if len(samples) < 8:
        raise FitError(f"need >= 8 samples, got {len(samples)}")
    dist = np.array([s[0] for s in samples], dtype=float)
    vals = np.abs(np.array([s[1] for s in samples], dtype=float))
    if np.any(vals < 1e-280) or np.any(dist <= 0):
        raise FitError("sample values underflow; cannot fit a log-log slope")
    x, y = np.log(dist), np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(
        float(slope), float(intercept), _r_squared(x, y, slope, intercept),
        (float(dist.min()), float(dist.max())),
    )


# ---------------------------------------------------------------------------
# structured reports


def structured_report(name: str, anchor: str, inputs, value: float,
                      threshold: float, verdict: bool) -> dict:
    """JSON-ready certificate record with a digest of the inputs: of each part
    of a tuple in turn, an array by dtype, shape and bytes, anything else by repr."""
    digest = hashlib.sha256()
    for part in inputs if isinstance(inputs, tuple) else (inputs,):
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            digest.update(np.ascontiguousarray(part))
        else:
            digest.update(repr(part).encode())
    return {
        "check": name,
        "anchor": anchor,
        "inputs_digest": digest.hexdigest()[:16],
        "value": float(value),
        "threshold": float(threshold),
        "verdict": "pass" if verdict else "fail",
    }


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_series_csv(path, header: list[str], columns) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")
