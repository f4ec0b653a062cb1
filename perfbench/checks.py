"""Correctness checks of the workloads' outputs.

Every check compares a program output with a closed form computed here,
apart from penwave, or with a property the method must have.  The checks
are plain functions of arrays and numbers, so the tests of the benchmark can
feed them deliberately wrong outputs.  Nothing in this module is timed.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# tolerances, each with the figure measured at the seed commit
NIRENBERG_SHARE = 0.25      # Q0 scheme error / nonlinear effect; measured 0.07
PHI_ENERGY_DRIFT = 1e-3     # E_phi drift of the Q0 run 1.5e-4; of a linear run 3.7e-3
DALEMBERT_DR2 = 200.0       # linear error / dr^2; measured 99 at dr = 1e-2
ENERGY_DRIFT = 1e-3         # linear energy drift; measured 2.3e-4
PUSHFORWARD_REL = 2e-2      # pushforward against u/Omega from the closed form
SUP_EXPONENT = (-1.15, -0.85)
DECAY_PLATEAU = 2.0
TRANSFORM_TOL = 1e-12
BOUNDARY_REL = 1e-12        # the closed form meets it everywhere; brentq fails near the tip
JET_REL = 1e-5              # compute_jet against sympy; measured 1e-7
VERIFY_JET = 1e-3           # acceptance criterion 5
AGREE_REL = 1e-9            # stored against in-memory values
# identity batteries: second-order h-refinement ratios as in acceptance
# criteria 2 and 3.  The residual ceiling is 1e-4 for both, because seeded
# points reach a commutator residual of 1.01e-5, above criterion 3's 1e-5
# for its fixed points.
BATTERY_RATIOS = {"intertwining": (3.0, 5.5), "commutator": (3.5, 4.5)}
BATTERY_RESIDUAL = 1e-4


class Ledger:
    """Operations attempted and failed, with the reason for every failure.

    An operation tagged with a known fault that fails its check counts as
    failed and leaves ``correct`` true; any other failing check makes the
    run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.faults: Counter[str] = Counter()
        self.problems: list[str] = []
        self.details: dict[str, str] = {}

    def op(self, name: str, ok, fault: str | None = None, detail: str = "") -> None:
        """Record one operation, or one per entry when ``ok`` is an array."""
        ok = np.atleast_1d(np.asarray(ok, dtype=bool))
        if detail:
            self.details[name] = detail
        bad = int(np.count_nonzero(~ok))
        self.attempted += ok.size
        self.failed += bad
        if bad and fault:
            self.faults[fault] += bad
        elif bad:
            self.correct = False
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {bad}/{ok.size} failed {detail}".rstrip())


def rel_close(a, b, rtol: float = AGREE_REL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    both = np.isfinite(a) & np.isfinite(b)
    scale = max(float(np.max(np.abs(b[both]), initial=0.0)), 1e-300)
    if not np.array_equal(both, np.isfinite(a) | np.isfinite(b)):
        return False
    return bool(np.all(np.abs(a[both] - b[both]) <= rtol * scale))


# ---------------------------------------------------------------------------
# radial wave closed forms


def _bump_moment(x, center, width, amp):
    """Antiderivative of s * amp * exp(-((s - center)/width)^2)."""
    from scipy.special import erf

    z = (x - center) / width
    return amp * (center * width * math.sqrt(math.pi) / 2.0 * erf(z)
                  - width * width / 2.0 * np.exp(-z * z))


def dalembert_w(t, r, r_b, center, width, amp):
    """w = r u of the exterior linear problem with data (0, amp * bump).

    d'Alembert's formula for w_tt = w_rr with the odd reflection of s g(s)
    about r = r_b, which enforces w(r_b) = 0.
    """
    lo = np.where(r - t < r_b, 2.0 * r_b - r + t, r - t)
    return 0.5 * (_bump_moment(r + t, center, width, amp) - _bump_moment(lo, center, width, amp))


def nirenberg_u(w, r):
    """u = -log(1 - w/r) solves u_tt - Delta u = u_t^2 - u_r^2 when w/r solves the linear one."""
    return -np.log1p(-w / r)


def check_nirenberg(times, r, u_frames, params, r_b, window):
    """The Q0 run against the Nirenberg closed form over t <= window.

    Returns (ok, share): share is the scheme error divided by the size of the
    nonlinear effect |u_N - w/r|, so a run that dropped the nonlinearity
    scores about 1.
    """
    err = effect = 0.0
    for i in np.flatnonzero(np.asarray(times) <= window + 1e-9):
        w = dalembert_w(times[i], r, r_b, params["center"], params["width"], params["epsilon"])
        u_n = nirenberg_u(w, r)
        err = max(err, float(np.max(np.abs(u_frames[i] - u_n))))
        effect = max(effect, float(np.max(np.abs(u_n - w / r))))
    share = err / effect if effect > 0 else math.inf
    return share <= NIRENBERG_SHARE, share


def check_phi_energy(r, u_frames, ut_frames, ur_frames):
    """Drift of E_phi = 4 pi int e^{-2u} (u_t^2 + u_r^2) r^2 dr, conserved by Q0 runs."""
    dr = float(r[1] - r[0])
    energy = np.array([
        4.0 * math.pi * np.trapezoid(np.exp(-2.0 * u) * (ut ** 2 + ur ** 2) * r ** 2, dx=dr)
        for u, ut, ur in zip(u_frames, ut_frames, ur_frames)
    ])
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    return drift <= PHI_ENERGY_DRIFT, drift


def check_dalembert(times, r, u_frames, params, r_b, dr):
    """Linear run against w/r from d'Alembert: worst per-frame relative error <= C dr^2."""
    worst = 0.0
    for t, u in zip(times, u_frames):
        exact = dalembert_w(t, r, r_b, params["center"], params["width"], params["epsilon"]) / r
        peak = float(np.max(np.abs(exact)))
        if peak > 0:
            worst = max(worst, float(np.max(np.abs(u - exact))) / peak)
    return worst <= DALEMBERT_DR2 * dr ** 2, worst


def check_energy_drift(energy):
    energy = np.asarray(energy)
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    return drift <= ENERGY_DRIFT, drift


def check_pushforward(field, params, r_b, window, nonlinear):
    """Covered nodes whose preimage has t <= window against u/Omega in closed form.

    The preimage and Omega are recomputed here from the tangent half-angle
    formulas; u comes from d'Alembert, through Nirenberg's map when the run
    is the Q0 one.
    """
    TT, RR = np.meshgrid(field.T, field.R, indexing="ij")
    a = np.tan(0.5 * (TT + RR))
    b = np.tan(0.5 * (TT - RR))
    t, r = 0.5 * (a + b), 0.5 * (a - b)
    sel = field.mask & (t <= window)
    if not sel.any():
        return False, math.inf
    t, r = t[sel], r[sel]
    w = dalembert_w(t, r, r_b, params["center"], params["width"], params["epsilon"])
    u = nirenberg_u(w, r) if nonlinear else w / r
    omega = 2.0 / np.sqrt((1.0 + (t + r) ** 2) * (1.0 + (t - r) ** 2))
    exact = u / omega
    rel = float(np.max(np.abs(field.values[sel] - exact)) / np.max(np.abs(exact)))
    return rel <= PUSHFORWARD_REL, rel


# ---------------------------------------------------------------------------
# certify-sweep


def transform_forward_ok(rows_in, rows_out):
    """Per row: (T, R, Omega) against numpy arctan closed forms."""
    t, r = rows_in[:, 0], rows_in[:, 1]
    a, b = np.arctan(t + r), np.arctan(t - r)
    ref = np.column_stack([t, r, a + b, a - b,
                           2.0 / np.sqrt((1.0 + (t + r) ** 2) * (1.0 + (t - r) ** 2))])
    if rows_out.shape != ref.shape:
        return np.zeros(len(rows_in), dtype=bool)
    return np.all(np.abs(rows_out - ref) <= TRANSFORM_TOL * (1.0 + np.abs(ref)), axis=1)


def transform_backward_ok(rows_in, rows_out):
    """Per row: (t, r) against numpy tangent half-angle closed forms.

    t and r are half sums and differences of two tangents, so the tolerance
    scales with the tangents, not with their difference.
    """
    T, R = rows_in[:, 0], rows_in[:, 1]
    a, b = np.tan(0.5 * (T + R)), np.tan(0.5 * (T - R))
    ref = np.column_stack([T, R, 0.5 * (a + b), 0.5 * (a - b)])
    if rows_out.shape != ref.shape:
        return np.zeros(len(rows_in), dtype=bool)
    scale = 1.0 + np.abs(a) + np.abs(b)
    return np.all(np.abs(rows_out - ref) <= TRANSFORM_TOL * scale[:, None], axis=1)


def boundary_ok(values, reference):
    values, reference = np.asarray(values), np.asarray(reference)
    return np.abs(values - reference) <= BOUNDARY_REL * np.abs(reference)


def form_ok(form: dict, verdict: bool, decomposition) -> bool:
    """Verdict as built; for a null form also the coefficients built in."""
    if verdict != form["null"]:
        return False
    if not form["null"]:
        return True
    got = decomposition.lam if form["kind"] == "quadratic" else decomposition.linear_factor
    got = np.asarray(got).reshape(np.shape(form["built"]))
    if form["exact"]:
        return bool(np.all(got == form["built"]))
    return rel_close(got.astype(float), np.asarray(form["built"], dtype=float))


def jet_ok(psi, reference, pad: int = 8):
    """psi_0..psi_K against the sympy jets, relative L2 away from the grid ends."""
    worst = 0.0
    for values, ref in zip(psi, reference):
        values, ref = values[pad:-pad], ref[pad:-pad]
        scale = float(np.sqrt(np.mean(ref ** 2)))
        err = float(np.sqrt(np.mean((values - ref) ** 2)))
        worst = max(worst, err / scale if scale > 0 else err)
    return len(psi) == len(reference) and worst <= JET_REL, worst


def verify_jet_ok(errors: dict) -> bool:
    return all(v < VERIFY_JET for v in errors.values())


def battery_ok(kind: str, fine: float, coarse: float) -> bool:
    lo, hi = BATTERY_RATIOS[kind]
    return fine < BATTERY_RESIDUAL and fine > 0 and lo < coarse / fine < hi
