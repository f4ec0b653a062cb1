"""Decay fits and estimate certificates over solver output.

Quantitative post-processing: power-law and exponential fits of monitor
series, the weighted sup-norm decay certificate, the cylinder energy
inequality, weighted-norm boundedness reports, and vanishing-order fits for
the degenerating frame coefficients.  ``CHECKS`` is the one table of named
certificates that ``penwave verify`` and the acceptance criteria both run.

Boundedness claims are certified scale-free: instead of absolute constants
(none are canonical for this problem), each certificate reports a plateau
ratio -- the max/min of the windowed estimate over the tail of the series --
and the verdict thresholds that ratio.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import cylinder, geometry, solver
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
    "Check",
    "write_report",
]

DEFAULT_SIGMA = 0.25


def _check_sigma(sigma: float) -> None:
    """Raise DomainError unless the decay exponent sigma lies in (0, 1] (NaN does not)."""
    if not 0.0 < sigma <= 1.0:
        raise DomainError("sigma must lie in (0, 1]")


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
        if not (np.diff(t) > 0).all():  # a NaN does not increase
            raise DomainError("series abscissae t must be strictly increasing")
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise DomainError("series ordinates must be finite and nonnegative")

    def window(self, lo: float, hi: float) -> "Series":
        sel = (self.t >= lo) & (self.t <= hi)
        return Series(self.t[sel], self.y[sel])


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary; ``exponent`` holds the rate for exponential fits."""

    exponent: float
    r_squared: float


def _r_squared(x, y, slope, intercept):
    """1 - ss_res / ss_tot clamped to [0, 1]; NaN, never 1.0, when the residuals are NaN."""
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if math.isnan(ss_res):
        return math.nan
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-20 else 0.0
    return float(np.clip(1.0 - ss_res / ss_tot, 0.0, 1.0))


def _select_window(series: Series, window: tuple[float, float]) -> Series:
    sub = series.window(*window)
    if len(sub.t) < 10:
        raise FitError(f"window {window} holds {len(sub.t)} points; need >= 10")
    return sub


def fit_power(series: Series, window: tuple[float, float]) -> FitResult:
    """Fit y = C t^p on log-log axes over ``window``; returns the slope p as the exponent.

    Raises FitError on degenerate windows or nonpositive ordinates.
    """
    sub = _select_window(series, window)
    if np.any(sub.y <= 0) or np.any(sub.t <= 0):
        raise FitError("power fit needs strictly positive t and y in the window")
    x, y = np.log(sub.t), np.log(sub.y)
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(float(slope), _r_squared(x, y, slope, intercept))


def fit_exponential(series: Series, window: tuple[float, float]) -> FitResult:
    """Fit y = C e^{-c t} over ``window``; returns the decay rate c (= minus the
    log-linear slope)."""
    sub = _select_window(series, window)
    if np.any(sub.y <= 0):
        raise FitError("exponential fit needs strictly positive ordinates in the window")
    x, y = sub.t, np.log(sub.y)
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(float(-slope), _r_squared(x, y, slope, intercept))


@dataclass(frozen=True)
class DecayCertificate:
    """Weighted sup-norm certificate: C_sup over all sampled (t, r).

    The weight is (1+t)(1+|t-r|)^{1-sigma}; finiteness of C_sup with a tame
    plateau ratio over the tail ``window`` certifies the corresponding pointwise
    decay at the sampled resolution.
    """

    C_sup: float
    plateau_ratio: float
    window: tuple[float, float]


def decay_certificate(traj: Trajectory, sigma: float = DEFAULT_SIGMA,
                      tail_from: float | None = None) -> DecayCertificate:
    """Sweep all stored frames and grid nodes with the decay weight.

    Returns the global weighted sup and the plateau ratio (max/min of the
    per-frame weighted sup) over the tail window, which defaults to the last
    half of the stored times and can be widened via ``tail_from``.  Raises
    DomainError for sigma outside (0, 1], naming the frame time, for a
    frame whose weighted sup is not finite, and for a ``tail_from`` (NaN
    included) that leaves no frame in the window.
    """
    _check_sigma(sigma)
    r, times = traj.r, traj.times
    frame_sup = np.zeros(len(times))
    for i, t in enumerate(times):
        weight = (1.0 + t) * (1.0 + np.abs(t - r)) ** (1.0 - sigma)
        frame_sup[i] = (np.abs(traj.u_frames[i]) * weight).max()
    bad = np.flatnonzero(~np.isfinite(frame_sup))
    if len(bad):
        raise DomainError(f"weighted sup of the frame at t={times[bad[0]]} is not finite")
    c_sup = float(frame_sup.max())
    t0, t1 = float(times[0]), float(times[-1])
    lo = 0.5 * (t0 + t1) if tail_from is None else float(tail_from)
    tail = frame_sup[times >= lo]
    if not tail.size:
        raise DomainError(f"tail_from = {tail_from} leaves no frame in the tail window: "
                          f"the last frame is at t = {t1}")
    tail_min = float(tail.min())
    plateau = float(tail.max() / tail_min) if tail_min > 0 else math.inf
    return DecayCertificate(C_sup=c_sup, plateau_ratio=plateau, window=(lo, t1))


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


def energy_inequality_check(field: cylinder.CylinderField) -> EnergySlackReport:
    """Evaluate the energy inequality on every covered row of a cylinder field.

    The energy norm includes the zeroth-order term (the conformal operator
    carries a unit mass term, under which the full norm is non-increasing for
    data vanishing at T = 0).  The derivative norms read the field's stored
    ``d_T`` and ``d_R`` on its mask; a field without them is a DomainError.
    The forcing rows come from ``field.forcing``; absent forcing is treated as
    zero.  ``passed`` applies the threshold of the ``energy`` check to the slack.
    """
    if field.d_T is None or field.d_R is None:
        raise DomainError("the energy check reads the field's stored d_T and d_R; "
                          "this field has none")
    rows = np.flatnonzero(field.mask.any(axis=1))
    if not len(rows):
        raise DomainError("field has no covered rows")
    T = field.T[rows]
    mask = field.mask[rows]
    n_v, n_T, n_R = (cylinder.rows_Lp(arr[rows], field.R, mask, 2.0)
                     for arr in (field.values, field.d_T, field.d_R))
    lhs = np.sqrt(n_v ** 2 + n_T ** 2 + n_R ** 2)
    if field.forcing is not None:
        g_norm = cylinder.rows_Lp(field.forcing[rows], field.R, mask, 2.0)
    else:
        g_norm = np.zeros(len(rows))
    # cumulative trapezoid of the forcing norm over T
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g_norm[1:] + g_norm[:-1]) * np.diff(T))])
    rhs = lhs[0] + cum
    scale = np.maximum(rhs, 1e-300)
    slack = float(np.max((lhs - rhs) / scale))
    if lhs[0] == 0.0 and np.all(rhs == 0.0):
        slack = float(np.max(lhs))  # zero solution: both sides vanish
    headroom = float(np.min(((rhs - lhs) / scale)[1:], initial=math.inf))
    return EnergySlackReport(T=T, lhs=lhs, rhs=rhs, slack=slack,
                             passed=CHECKS["energy"].passes(slack), headroom=headroom)


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
    plateau_ratio: float
    bounded: bool


def weighted_norm_report(
    field: cylinder.CylinderField,
    p: int = 2,
    sigma: float = DEFAULT_SIGMA,
) -> WeightedNormReport:
    """Per-row m(T) = sum over orders <= p of (L2 + L6 of the weighted
    derivatives) plus (pi-T)^sigma times the sup norms up to order p-1.

    Verdict "bounded" iff the plateau ratio of the m series over the last third
    of covered rows is within the threshold of the ``weighted-norms`` check.
    Raises DomainError for sigma outside (0, 1], for p outside 0..3, and when
    no row has the 4 valid nodes a row needs.
    """
    _check_sigma(sigma)
    rows = np.flatnonzero(field.mask.sum(axis=1) >= 4)
    if len(rows) == 0:
        raise DomainError("no row has 4 valid nodes")
    T = field.T[rows]
    norms = cylinder.weighted_row_norms(field, p, rows)
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
    return WeightedNormReport(T=T, m=m_vals, plateau_ratio=plateau,
                              bounded=CHECKS["weighted-norms"].passes(plateau))


def vanishing_order_fit(samples) -> FitResult:
    """Log-log slope of |value| against distance for degenerating coefficients.

    ``samples`` is a sequence of (dist, value) pairs with geometrically
    decreasing distances.  Raises FitError on fewer than 8 samples, on a sample
    whose distance is not positive and finite or whose value is not finite
    (naming the first such sample), and when a value underflows.
    """
    samples = list(samples)
    if len(samples) < 8:
        raise FitError(f"need >= 8 samples, got {len(samples)}")
    dist = np.array([s[0] for s in samples], dtype=float)
    vals = np.abs(np.array([s[1] for s in samples], dtype=float))
    bad = np.flatnonzero(~(np.isfinite(dist) & (dist > 0) & np.isfinite(vals)))
    if bad.size:
        raise FitError(f"sample {bad[0]} (dist, value) = {tuple(samples[bad[0]])}: the "
                       f"distance must be positive and finite and the value finite")
    if np.any(vals < 1e-280):
        raise FitError("sample values underflow; cannot fit a log-log slope")
    x, y = np.log(dist), np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(float(slope), _r_squared(x, y, slope, intercept))


# ---------------------------------------------------------------------------
# structured reports


def structured_report(name: str, anchor: str, inputs, value: float,
                      threshold: float, verdict: bool) -> dict:
    """JSON-ready certificate record with a digest of the inputs: of each part
    of a tuple in turn, an array by dtype, shape and bytes, anything else by repr.
    ``margin`` is threshold - value, how far the value lies below a threshold that
    bounds it from above; ``Check.run`` gives value - threshold for a lower bound."""
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
        "margin": float(threshold) - float(value),
        "verdict": "pass" if verdict else "fail",
    }


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the certificate table


_PASSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """A named certificate.  ``reads`` names its source ("trajectory", "field" or "nothing")
    and ``compute(source, **params)`` gives the inputs to digest, the value, whether the
    side conditions hold and extra report fields.  ``takes_sigma``: ``verify`` passes it
    ``--sigma``.  The report's ``margin`` is positive on the passing side of the threshold."""

    name: str
    anchor: str
    reads: str
    threshold: float
    direction: str
    compute: object
    takes_sigma: bool = False

    def passes(self, value: float) -> bool:
        return _PASSES[self.direction](value, self.threshold)

    def run(self, source=None, **params) -> dict:
        inputs, value, side_ok, extra = self.compute(source, **params)
        verdict = bool(side_ok) and self.passes(value)
        report = structured_report(self.name, self.anchor, inputs, value, self.threshold, verdict)
        if self.direction.startswith(">"):
            report["margin"] = report["value"] - report["threshold"]
        return {**report, **extra}


BOUNDARY_T = np.linspace(1.0, math.pi - 1e-3, 300)
VANISHING_EPS = math.pi * 0.5 ** np.arange(3, 13)
MORAWETZ_WINDOW = (5.0, 30.0)


def _identity_omega(_):
    t, r = np.random.default_rng(0).uniform(0.0, 50.0, size=(10_000, 2)).T
    omega = geometry.omega_einstein(*geometry.einstein_coords(t, r))
    worst = float(np.max(np.abs(geometry.omega_minkowski(t, r) - omega)))
    return (t, r), worst, True, {}


def _battery(residual, in_band):
    """Worst battery residual at h = 1e-3; each test's h-ratio (2e-3 over 1e-3) in band."""
    points = cylinder.battery_points()
    fine = [residual(fn, points, h=1e-3) for _, fn in cylinder.TEST_BATTERY]
    ratios = [residual(fn, points, h=2e-3) / r1
              for (_, fn), r1 in zip(cylinder.TEST_BATTERY, fine)]
    inputs = np.column_stack(points)
    extra = {"h_ratio_min": min(ratios), "h_ratio_max": max(ratios)}
    return inputs, max(fine), all(map(in_band, ratios)), extra


def _boundary_geometry(_):
    """Band ratio of Phi(T) / (pi - T)^2; the closed-form slope must be negative and
    agree with central differences on well-conditioned points."""
    obs = geometry.ObstacleSpec(0.2)
    T = BOUNDARY_T
    ratio = np.array([geometry.boundary_curve(obs, Tv) for Tv in T]) / (math.pi - T) ** 2
    slopes = np.array([geometry.boundary_curve_slope(obs, Tv) for Tv in T])
    h = 1e-5
    fd_rel = 0.0
    for Tv in np.linspace(1.0, 2.9, 20):
        fd = (geometry.boundary_curve(obs, Tv + h)
              - geometry.boundary_curve(obs, Tv - h)) / (2 * h)
        fd_rel = max(fd_rel, abs(geometry.boundary_curve_slope(obs, Tv) - fd) / abs(fd))
    side_ok = np.all(slopes < 0) and fd_rel < 1e-6
    extra = {"slope_bound": float(np.min(-slopes / (math.pi - T))), "fd_rel_err": fd_rel}
    return (T, obs.r_b), float(ratio.max() / ratio.min()), side_ok, extra


def _vanishing_order(_):
    from . import nullform  # loaded here only: nothing else in this module needs it
    T, R = math.pi - VANISHING_EPS, VANISHING_EPS / 8.0
    p, q = geometry.frame_terms(*geometry.minkowski_coords(T, R))
    a00 = nullform.transformed_q0_coefficients(T, R).a[..., 0, 0]
    frame = vanishing_order_fit(zip(VANISHING_EPS, p + q)).exponent
    a_block = vanishing_order_fit(zip(VANISHING_EPS, a00)).exponent
    return VANISHING_EPS, min(frame, a_block), True, {"frame_slope": frame,
                                                      "a_block_slope": a_block}


def _decay(traj: Trajectory, sigma: float = DEFAULT_SIGMA, tail_from: float | None = None):
    cert = decay_certificate(traj, sigma=sigma, tail_from=tail_from)
    inputs = (traj.times, traj.u_frames, traj.ut_frames, solver.config_sections(traj.config))
    return inputs, cert.plateau_ratio, True, {"C_sup": cert.C_sup}


def _morawetz(traj: Trajectory):
    """Exponential decay rate of the local energy over MORAWETZ_WINDOW.  Where it is already
    extinct there (at most 1e-20 of the initial energy: sharp Huygens propagation), the
    "extinct" branch fits its collapse, which must end before the window, from half-way on.
    Morawetz's estimate is for the linear problem: a nonlinear run is a DomainError."""
    if (spec := traj.config.nonlinearity).terms:
        raise DomainError(f"morawetz certifies the linear problem, and '{spec.name}' has terms")
    m = traj.monitors
    series = Series(m.t, np.maximum(m.E_local, 1e-300))
    fit = fit_exponential(series, window=MORAWETZ_WINDOW)
    floor = 1e-20 * float(m.E_total[0])
    ok, info = True, {"branch": "literal"}
    if series.window(*MORAWETZ_WINDOW).y.max() <= floor < m.E_local.max():
        t_peak = float(m.t[np.argmax(m.E_local)])
        t_end = float(m.t[np.flatnonzero(m.E_local > floor)[-1]])
        fit = fit_exponential(series, window=(t_peak + 0.5 * (t_end - t_peak), t_end))
        ok, info = t_end < MORAWETZ_WINDOW[0], {"branch": "extinct", "t_extinct": t_end}
    inputs = (m.t, m.E_total, m.E_local, solver.config_sections(traj.config))
    return inputs, fit.exponent, ok and fit.r_squared >= 0.95, {**info, "r_squared": fit.r_squared}


def _energy(field: cylinder.CylinderField):
    rep = energy_inequality_check(field)
    return tuple(vars(field).values()), rep.slack, True, {"headroom": rep.headroom}


def _weighted_norms(field: cylinder.CylinderField, sigma: float = DEFAULT_SIGMA):
    rep = weighted_norm_report(field, p=2, sigma=sigma)
    return (tuple(vars(field).values()), rep.plateau_ratio, True,
            {"last_row_T": float(rep.T[-1])})


CHECKS = {check.name: check for check in (
    Check("identity-omega", "conformal-factor-closed-forms", "nothing", 1e-12, "<",
          _identity_omega),
    Check("intertwining", "conformal-operator-interchange", "nothing", 1e-4, "<",
          lambda _: _battery(cylinder.intertwining_residual, lambda q: 3.0 < q < 5.5)),
    Check("commutator", "timelike-field-commutation", "nothing", 1e-5, "<",
          lambda _: _battery(cylinder.commutator_residual, lambda q: 3.5 <= q <= 4.5)),
    Check("boundary-geometry", "obstacle-curve-collapse", "nothing", 2.0, "<", _boundary_geometry),
    Check("vanishing-order", "tip-degeneration-rate", "nothing", 1.9, ">=", _vanishing_order),
    Check("decay", "weighted-supnorm-certificate", "trajectory", 2.0, "<=", _decay,
          takes_sigma=True),
    Check("morawetz", "local-energy-decay", "trajectory", 0.0, ">", _morawetz),
    Check("energy", "conformal-energy-inequality", "field", 0.02, "<=", _energy),
    Check("weighted-norms", "mixed-norm-boundedness", "field", 4.0, "<=", _weighted_norms,
          takes_sigma=True),
)}
