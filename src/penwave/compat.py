"""Compatibility functions for the radial Dirichlet-Cauchy problem.

For the exterior radial equation

    u_tt = u_rr + (2/r) u_r + N(u, u_t, u_r),

the forced time derivatives psi_k = d_t^k u(0, .) are determined recursively
by the data (psi_0 = f, psi_1 = g) and the equation.  The recursion is
implemented with truncated time-Taylor jets: every field is carried as the
sequence of its time derivatives at t = 0, products combine by Leibniz, and
radial differentiation acts coefficient-wise.  Each psi_k depends only on the
k-jet of f and the (k-1)-jet of g.

A Dirichlet-Cauchy problem is compatible to order s when psi_j vanishes on
the obstacle boundary for all j <= s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError, OrderError
from .geometry import ObstacleSpec

__all__ = [
    "RadialProfile",
    "NonlinearitySpec",
    "CompatibilityJet",
    "CompatibilityReport",
    "ZERO",
    "Q0_RADIAL",
    "DT_SQUARED",
    "gaussian_bump",
    "compute_jet",
    "verify_jet",
    "check_compatibility",
    "deriv4",
]

MAX_JET_ORDER = 6


def _deriv4_once(values: np.ndarray, dr: float) -> np.ndarray:
    """Fourth-order first derivative, centered inside, one-sided at the edges."""
    n = len(values)
    if n < 6:
        raise OrderError("profile too short for fourth-order differencing")
    out = np.empty_like(values, dtype=float)
    out[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * dr)
    fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * dr)
    out[0] = fwd @ values[:5]
    out[1] = fwd @ values[1:6]
    out[-1] = -(fwd @ values[-1:-6:-1])
    out[-2] = -(fwd @ values[-2:-7:-1])
    return out


def deriv4(values: np.ndarray, dr: float, order: int = 1) -> np.ndarray:
    """Repeated fourth-order radial differentiation."""
    out = np.asarray(values, dtype=float)
    for _ in range(order):
        out = _deriv4_once(out, dr)
    return out


@dataclass(frozen=True)
class RadialProfile:
    """Samples of a function of r on the uniform grid r0 + i*dr, i = 0..n-1."""

    r0: float
    dr: float
    values: np.ndarray
    max_order: int = MAX_JET_ORDER

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise DomainError("profile values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def r(self) -> np.ndarray:
        return self.r0 + self.dr * np.arange(len(self.values))

    def derivative(self, order: int) -> np.ndarray:
        if order > self.max_order:
            raise OrderError(f"derivative order {order} exceeds capacity {self.max_order}")
        return deriv4(self.values, self.dr, order)

    @classmethod
    def from_callable(cls, fn, r0: float, r_max: float, dr: float) -> "RadialProfile":
        r = np.arange(r0, r_max + 0.5 * dr, dr)
        return cls(r0=r0, dr=dr, values=fn(r))


def gaussian_bump(center: float, width: float, amplitude: float = 1.0):
    """Analytic bump family exp(-((r - center)/width)^2), numerically compactly supported."""

    def fn(r):
        return amplitude * np.exp(-(((np.asarray(r) - center) / width) ** 2))

    return fn


@dataclass(frozen=True)
class NonlinearitySpec:
    """Semilinear polynomial N(u, u_t, u_r) as a sum of monomials.

    ``terms`` is a tuple of (coefficient, (p_u, p_ut, p_ur)) with total degree
    at most 3; the coefficient is a float or a callable of r.  The built-ins
    satisfy N(0,0,0) = 0 with vanishing first derivatives.
    """

    name: str
    terms: tuple = ()

    def __post_init__(self):
        for coeff, powers in self.terms:
            if len(powers) != 3 or sum(powers) > 3 or min(powers) < 0:
                raise DomainError(f"bad monomial powers {powers}")

    def __call__(self, u, u_t, u_r, r=None):
        """Pointwise evaluation."""
        out = np.zeros(np.broadcast(u, u_t, u_r).shape)
        for coeff, (pu, put, pur) in self.terms:
            c = coeff(r) if callable(coeff) else coeff
            out += c * u ** pu * u_t ** put * u_r ** pur
        return out

    @property
    def is_trivial(self) -> bool:
        return not self.terms


ZERO = NonlinearitySpec(name="zero")
Q0_RADIAL = NonlinearitySpec(name="q0-radial", terms=((1.0, (0, 2, 0)), (-1.0, (0, 0, 2))))
DT_SQUARED = NonlinearitySpec(name="dt-squared", terms=((1.0, (0, 2, 0)),))

BUILTIN_NONLINEARITIES = {s.name: s for s in (ZERO, Q0_RADIAL, DT_SQUARED)}


@dataclass(frozen=True)
class CompatibilityJet:
    """The sequence psi_0 .. psi_K of forced time derivatives at t = 0."""

    psi: tuple[RadialProfile, ...]

    @property
    def K(self) -> int:
        return len(self.psi) - 1


def _jet_mul(a: list, b: list, order: int) -> list:
    """Leibniz product of two time jets (entries are d_t^k values at t = 0)."""
    return [
        sum(comb(k, i) * a[i] * b[k - i] for i in range(k + 1))
        for k in range(order + 1)
    ]


def compute_jet(
    f: RadialProfile, g: RadialProfile, F: NonlinearitySpec, K: int
) -> CompatibilityJet:
    """Compatibility functions psi_0..psi_K by the jet recursion.

    psi_0 = f and psi_1 = g exactly; for k >= 0,

        psi_{k+2} = d_t^k [ u_rr + (2/r) u_r + N(u, u_t, u_r) ] at t = 0,

    where every occurrence of d_t^j u is replaced by psi_j.  The Leibniz rule
    handles the products inside N, so psi_k consumes the k-jet of f and the
    (k-1)-jet of g only.
    """
    if K > MAX_JET_ORDER:
        raise OrderError(f"jet order {K} exceeds the supported maximum {MAX_JET_ORDER}")
    if K > min(f.max_order, g.max_order + 1):
        raise OrderError("profiles do not support the requested derivative orders")
    if f.r0 != g.r0 or f.dr != g.dr or len(f.values) != len(g.values):
        raise DomainError("f and g must share a grid")
    r = f.r
    dr = f.dr
    psi: list[np.ndarray] = [f.values.copy(), g.values.copy()]
    for k in range(0, K - 1):
        lap = deriv4(psi[k], dr, 2) + (2.0 / r) * deriv4(psi[k], dr, 1)
        nonlinear = np.zeros_like(lap)
        if not F.is_trivial:
            u_jet = psi[: k + 2]
            ut_jet = psi[1: k + 2]
            ur_jet = [deriv4(p, dr, 1) for p in psi[: k + 1]]
            for coeff, (pu, put, pur) in F.terms:
                term = [np.ones_like(r)] + [np.zeros_like(r)] * k
                for jet, power in ((u_jet, pu), (ut_jet, put), (ur_jet, pur)):
                    for _ in range(power):
                        term = _jet_mul(term, jet, k)
                c = coeff(r) if callable(coeff) else coeff
                nonlinear += c * term[k]
        psi.append(lap + nonlinear)
    profiles = tuple(
        RadialProfile(r0=f.r0, dr=f.dr, values=p, max_order=f.max_order) for p in psi[: K + 1]
    )
    return CompatibilityJet(psi=profiles)


def _central_weights(k: int, n_side: int, dt: float) -> np.ndarray:
    """Weights w_j, j = -n_side..n_side, with sum w_j p(j dt) = p^(k)(0).

    Exact for polynomials of degree < 2 n_side + 1.  Central stencils are
    preferred over one-sided ones because their coefficients are orders of
    magnitude smaller, which keeps the 1/dt^k roundoff amplification in
    check for k up to 4.
    """
    j = np.arange(-n_side, n_side + 1)
    vander = np.vander(j, increasing=True).T.astype(float)  # row m: j^m
    rhs = np.zeros(2 * n_side + 1)
    rhs[k] = math.factorial(k)
    w = np.linalg.solve(vander, rhs)
    return w / dt ** k


def verify_jet(
    jet: CompatibilityJet,
    f: RadialProfile,
    g: RadialProfile,
    F: NonlinearitySpec,
    dt: float | None = None,
    k_max: int | None = None,
) -> dict[int, float]:
    """Relative L^2 discrepancy of each psi_k against a fine reference solve.

    Runs the evolution on the profile grid (data supported away from the
    boundary, so no obstacle interaction occurs in the sampled window) both
    forward and backward in time -- backward samples come from the forward
    evolution of (f, -g), since the equation is invariant under t -> -t --
    and estimates d_t^k u(0, .) by central differences exact for polynomials
    of degree 2 k_max + 4.  Orders 0 and 1 are the data and return exact
    zeros.
    """
    from . import solver  # local import: solver seeds its first step from this module

    k_max = min(jet.K, 4) if k_max is None else min(k_max, jet.K)
    dr = f.dr
    dt = 2.5 * dr if dt is None else dt
    n_side = k_max + 2
    fwd = solver.reference_samples(f, g, F, dt=dt, n_samples=n_side + 1)
    g_neg = RadialProfile(r0=g.r0, dr=g.dr, values=-g.values)
    # under t -> -t, u_t flips sign, so odd u_t powers pick up a minus
    F_rev = NonlinearitySpec(
        name=F.name + "_rev",
        terms=tuple((c * (-1) ** put, (pu, put, pur)) for c, (pu, put, pur) in F.terms),
    )
    bwd = solver.reference_samples(f, g_neg, F_rev, dt=dt, n_samples=n_side + 1)
    # u_samples[n_side + j] = u(j dt), j = -n_side..n_side
    u_samples = list(reversed(bwd[1:])) + fwd
    r = f.r
    # trim the outermost nodes: one-sided radial stencils there are the noisiest
    pad = 8
    interior = slice(pad, len(r) - pad)
    out: dict[int, float] = {}
    for k in range(0, k_max + 1):
        psi_k = jet.psi[k].values[interior]
        if k == 0:
            est = u_samples[n_side][interior]
        elif k == 1:
            # the solver stores u_t directly at t = 0
            est = g.values[interior]
        else:
            w = _central_weights(k, n_side, dt)
            est = sum(wj * u_samples[j][interior] for j, wj in enumerate(w))
        scale = float(np.sqrt(np.mean(psi_k ** 2)))
        err = float(np.sqrt(np.mean((est - psi_k) ** 2)))
        out[k] = err / scale if scale > 0 else err
    return out


@dataclass(frozen=True)
class CompatibilityReport:
    """Boundary values |psi_j(r_b)| and per-order verdicts."""

    boundary_values: tuple[float, ...]
    tol: float
    passed: tuple[bool, ...]

    @property
    def compatible(self) -> bool:
        return all(self.passed)


def check_compatibility(
    jet: CompatibilityJet, obs: ObstacleSpec, s: int, tol: float | None = None
) -> CompatibilityReport:
    """Definition-of-compatibility check: psi_j must vanish at r = r_b for j <= s.

    Boundary values are read off by cubic extrapolation through the four
    innermost nodes.  The default tolerance is 1e-8 times the largest |psi_j|
    over the grid (scale-free).
    """
    if s > jet.K:
        raise OrderError(f"requested order {s} exceeds jet order {jet.K}")
    if tol is None:
        peak = max(float(np.max(np.abs(p.values))) for p in jet.psi[: s + 1])
        tol = 1e-8 * max(peak, 1e-300)
    vals = []
    for p in jet.psi[: s + 1]:
        coeffs = np.polyfit(p.r[:4], p.values[:4], 3)
        vals.append(abs(float(np.polyval(coeffs, obs.r_b))))
    passed = tuple(v <= tol for v in vals)
    return CompatibilityReport(boundary_values=tuple(vals), tol=tol, passed=passed)
