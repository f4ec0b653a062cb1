"""Radial exterior-domain finite-difference evolution.

Solves u_tt = u_rr + (2/r) u_r + N(u, u_t, u_r) on r in [r_b, r_max] with
homogeneous Dirichlet conditions at both ends (a source term in r alone is a
monomial of N with no factors).  The substitution w = r u removes the first-order
transport term, giving w_tt = w_rr + r N with w(r_b) = w(r_max) = 0; the outer
condition is exact by finite propagation speed provided
r_max >= r_b + t_max + (data support radius) + 2.

The scheme is explicit leapfrog, second order in time; one core steps both
``run`` (second order in space) and ``reference_samples`` (fourth order).  The
first step is the Taylor expansion u(dt) = psi_0 + dt psi_1 + dt^2/2 psi_2 of
the compatibility jet, and ``run`` steps one level past t_max so that the last
level's u_t is a centred difference too.  When N depends on u_t the update is
implicit through (u^{n+1} - u^{n-1})/(2 dt); two fixed-point sweeps from the lagged
value resolve it.  When N(0) = 0, ``run`` steps only the shell between the data's outgoing
and reflected light cones and holds exact zeros outside it.  Ahead of the front edge
r = r_b + support + t + 2 the field vanishes (the data is zeroed beyond its support
radius, where the bump is below 2.3e-16 of its peak).  Behind the back edge
r - r_b = t - (support - r_b) - 2 the full grid holds a wake only: rounding noise when
N = 0 (w = r u obeys sharp Huygens, by d'Alembert with the odd reflection at r_b), and
O(eps dr^2) truncation error for a null form such as Q0, which Nirenberg's map turns into
the linear equation.  Every 50 steps the edge, rounded up to the next node 1 + 8 k, zeroes
the nodes it passes while their |w| is at most ``quiet`` of the shell's peak: 1e-10 when
N = 0 (7e-13 at most on the t = 80 run at dr = 5e-3), else _NULL_WAKE eps dr^2.  More,
such as the slow high-k modes of data too narrow for the grid or a non-null N's wake
(3.2e-4 of the peak for dt-squared), stops it.  Any other N steps the full grid.  The step
evaluates N on raw stencil differences (w, w - w_prev, w_{j+1} - w_{j-1} - 2 dr w / r),
with the scales that turn them into u, u_t and u_r folded once into each monomial's
coefficient.  The monitors differentiate each level they read themselves: the energy,
4 pi x the trapezoid of r^2 (u_t^2 + u_r^2), is summed from the squares of d = span r u_t
(the level difference w_next - w_prev, r psi_1 at t = 0) and g = r u_r = dw/dr - u, less
half the two end terms.  It differs from the trapezoid of the density by rounding only
(1.3e-15 of its scale at most on the bench runs).

The frame stacks live in one private anonymous mapping (POSIX only), whose unwritten
pages read as zeros and take no memory: a run with N(0) = 0 holds only its shell (0.15 of
the stacks on the t = 80 Q0 run, 0.29 on the linear run at dr = 5e-3 and t = 40).  A
full-grid run, or a host with transparent huge pages ``always``, saves nothing but behaves
the same.  ``Trajectory.ur_frames`` yields u_r one frame row at a time and holds no stack.

All dynamics run in Minkowski coordinates (fixed boundary r = r_b); fields on
the cylinder are produced afterwards by pushing stored frames through the
compactifying map.  A frame is kept every round(0.1 / dt) steps, and ``sample``
reads the frames back by cubic Hermite interpolation in t from the u and u_t that
each one stores, linear in r (u_r by the chord through each corner's two neighbours).
"""

from __future__ import annotations

import configparser
import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np

from . import compat, cylinder, geometry
from .errors import (
    ConfigError,
    CoverageError,
    NaNError,
    ParseError,
    RangeError,
    StabilityError,
)

__all__ = [
    "DataSpec",
    "SolverConfig",
    "MonitorSeries",
    "Trajectory",
    "CylinderGrid",
    "run",
    "sample",
    "transform_to_cylinder",
    "reference_samples",
    "read_config",
    "solver_config_from",
    "config_sections",
]

_FRAME_SPACING = 0.1  # a frame every round(0.1 / dt) steps
_MONITOR_STRIDE = 4  # monitors every 4 steps
_STORE_ARRAYS = ("r", "times", "u", "u_t")  # the store's array files, each <name>.npy
_COVERAGE_MARGIN = 2.0  # cylinder rows need preimages with t <= t_max - 2
# a nonlinear run's back edge zeroes a wake up to C eps dr^2 of the peak, C = 5: it reads up
# to 0.64 and 4.2 behind Q0 data of width 0.25 and 0.1 (dr = 2e-2 .. 5e-3), u_t^2 - 0.99 u_r^2
# more than 5 by r - r_b = 0.7 and u_t^2 - 0.999 u_r^2 by 4.3 at dr <= 1e-2
_NULL_WAKE = 5.0

# the sections and keys a config file may hold, in the order the store writes them
_SCHEMA = {
    "problem": ("nonlinearity", "epsilon", "r_b"),
    "grid": ("dr", "cfl", "t_max", "r_max"),
    "data": ("center", "width", "f_amp", "g_amp"),
    "output": ("snapshot_every",),
    "verify": ("order", "boundary_order", "tol"),
}


@dataclass(frozen=True)
class DataSpec:
    """Gaussian-bump Cauchy data: f = f_amp * bump, g = g_amp * bump."""

    center: float = 1.5
    width: float = 0.25
    f_amp: float = 0.0
    g_amp: float = 1.0

    @property
    def support_radius(self) -> float:
        """Outer radius beyond which the data is numerically zero."""
        return self.center + 6.0 * self.width

    def profiles(self, r0, r_max, dr, epsilon):
        bump_f = compat.gaussian_bump(self.center, self.width, epsilon * self.f_amp)
        bump_g = compat.gaussian_bump(self.center, self.width, epsilon * self.g_amp)
        f = compat.RadialProfile.from_callable(bump_f, r0, r_max, dr)
        g = compat.RadialProfile.from_callable(bump_g, r0, r_max, dr)
        return f, g


@dataclass(frozen=True)
class SolverConfig:
    obs: geometry.ObstacleSpec = field(default_factory=lambda: geometry.ObstacleSpec(0.2))
    nonlinearity: compat.NonlinearitySpec = compat.ZERO
    data: DataSpec = field(default_factory=DataSpec)
    epsilon: float = 0.01
    dr: float = 5e-3
    cfl: float = 0.9
    t_max: float = 80.0
    r_max: float = 90.0

    @property
    def dt(self) -> float:
        return self.cfl * self.dr

    def validate(self):
        """Raise StabilityError above the cfl ceiling and ConfigError, naming the
        field, on any other setting the scheme cannot run (NaN included; the data's
        center and amplitudes need only be finite), and for a t_max below half a step
        dt, which rounds to no step."""
        if self.cfl > 0.9:
            raise StabilityError(f"cfl = {self.cfl} exceeds the 0.9 stability ceiling")
        for name, value in (("cfl", self.cfl), ("epsilon", self.epsilon), ("dr", self.dr),
                            ("t_max", self.t_max), ("r_max", self.r_max),
                            ("data.width", self.data.width)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        for name in ("center", "f_amp", "g_amp"):
            if not math.isfinite(value := getattr(self.data, name)):
                raise ConfigError(f"data.{name} must be finite, got {value}")
        if round(self.t_max / self.dt) < 1:
            raise ConfigError(f"t_max = {self.t_max} is below half a step dt = {self.dt}, "
                              f"so the run would take no step")
        r_b = self.obs.r_b
        if not self.dr <= r_b:
            raise ConfigError(f"dr = {self.dr} must not exceed r_b = {r_b}, or E_local, "
                              f"taken out to 2 r_b, spans no grid cell")
        bound = r_b + self.t_max + self.data.support_radius + 2.0
        if not self.r_max >= bound:
            raise ConfigError(
                f"r_max = {self.r_max} violates the no-reflection bound "
                f"r_b + t_max + support + 2 = {bound:.3f}"
            )


@dataclass(frozen=True)
class MonitorSeries:
    """Every 4th level and the last: the energy, the local energy out to 2 r_b and sup |u|."""

    t: np.ndarray
    E_total: np.ndarray
    E_local: np.ndarray
    sup_u: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Stored evolution: frames on the radial grid plus monitors."""

    r: np.ndarray
    times: np.ndarray
    u_frames: np.ndarray
    ut_frames: np.ndarray
    monitors: MonitorSeries
    config: SolverConfig
    completed: bool = True

    def __post_init__(self):
        """Raise ConfigError, naming the field, unless r and times hold two values or more
        and strictly increase (a NaN in either does not), and u_frames and ut_frames are
        shaped (len(times), len(r)): ``sample`` reads between two frames and two nodes."""
        for name, values in (("times", self.times), ("r", self.r)):
            if len(values) < 2:
                raise ConfigError(f"Trajectory.{name} must hold two values or more")
            if not (np.diff(values) > 0).all():
                raise ConfigError(f"Trajectory.{name} must be strictly increasing")
        shape = (len(self.times), len(self.r))
        for name in ("u_frames", "ut_frames"):
            if (got := np.shape(getattr(self, name))) != shape:
                raise ConfigError(f"Trajectory.{name} must be shaped {shape}, got {got}")

    @property
    def ur_frames(self):
        """The rows of ``np.gradient(u_frames, r, axis=1)``, bit for bit, one frame at a time
        and each taken on access.  ``sample`` reads u_r at its corners instead."""
        return (np.gradient(row, self.r) for row in self.u_frames)


def run(config: SolverConfig) -> Trajectory:
    """Evolve the exterior problem; see the module docstring for the scheme.

    Raises StabilityError / ConfigError on bad configuration and NaNError on
    blow-up (the exception carries the partial trajectory as ``.trajectory``, None
    when the blow-up came before the second frame).
    """
    config.validate()
    r_b = config.obs.r_b
    dr, dt = config.dr, config.dt
    n = int(round((config.r_max - r_b) / dr))
    r = r_b + dr * np.arange(n + 1)
    f, g = config.data.profiles(r_b, r[-1], dr, config.epsilon)
    psi = [p.values for p in compat.compute_jet(f, g, config.nonlinearity, K=2).psi]

    n_steps = int(round(config.t_max / dt))
    stride = max(1, int(round(_FRAME_SPACING / dt)))
    n_local = int(np.count_nonzero(r <= 2.0 * r_b))  # E_local is taken out to 2 r_b
    inv_r = 1.0 / r
    reach = back = None
    if all(sum(p) >= 1 for _, p in config.nonlinearity.terms):
        # N(0) = 0: the field vanishes but for a wake outside the shell, see the module docstring
        reach, back = config.data.support_radius + 2.0, config.data.support_radius - r_b + 2.0
        psi = [np.where(r > config.data.support_radius, 0.0, p) for p in psi]
    quiet = _NULL_WAKE * config.epsilon * dr ** 2 if config.nonlinearity.terms else 1e-10

    frames_t = []  # frames are written in place at levels 0, stride, 2 stride, ... and the last
    frames_u, frames_ut = _zero_stack((2, n_steps // stride + 2, len(r)))
    mon_t, mon_E, mon_El, mon_sup = [], [], [], []
    u_buf, d_buf, g_buf = np.empty((3, len(r)))

    def energy(d, g, span):
        """4 pi x the trapezoid of (d / span)^2 + g^2 = r^2 (u_t^2 + u_r^2), summed by einsum's
        own loop (BLAS would make the bits follow its thread count)."""
        ends = (d[0] ** 2 + d[-1] ** 2) / span ** 2 + g[0] ** 2 + g[-1] ** 2
        return 4.0 * math.pi * dr * (np.einsum("i,i->", d, d) / span ** 2
                                     + np.einsum("i,i->", g, g) - 0.5 * ends)

    def record(level, b, w, ahead, behind):
        """Monitors and frames at ``level`` from w = r u and d = ahead - behind = span r u_t,
        span = 2 dt (r psi_1 with span 1 at level 0), on the shell of nodes b .. b + len(w) - 1
        (zero elsewhere), with one-sided ends.  u goes into the frame row on a frame level,
        else into a buffer; u_t only into the row."""
        s, t = slice(b, b + len(w)), level * dt
        frame = level % stride == 0 or level == n_steps
        row = len(frames_t)
        u = np.multiply(w, inv_r[s], out=frames_u[row, s] if frame else u_buf[s])
        if level == 0:
            d, span = np.multiply(r, psi[1], out=d_buf), 1.0
        else:
            d, span = np.subtract(ahead[s], behind[s], out=d_buf[s]), 2.0 * dt
        if frame:
            frames_t.append(t)
            if level == 0:
                frames_ut[row] = psi[1]
            else:
                u_t = np.divide(d, span, out=frames_ut[row, s])
                u_t *= inv_r[s]
        if level % _MONITOR_STRIDE == 0 or level == n_steps:
            g = g_buf[s]  # r u_r = dw/dr - u, dw/dr centred and one-sided at the ends
            np.subtract(w[2:], w[:-2], out=g[1:-1])
            g[0], g[-1] = -3.0 * w[0] + 4.0 * w[1] - w[2], 3.0 * w[-1] - 4.0 * w[-2] + w[-3]
            g /= 2.0 * dr
            g -= u
            mon_t.append(t)
            mon_E.append(energy(d, g, span))
            m = n_local - b  # the shell's nodes out to 2 r_b: none once the back edge passes
            mon_El.append(energy(d[:m], g[:m], span) if m > 1 else 0.0)
            mon_sup.append(float(max(u.max(), -u.min())))

    def partial_trajectory(completed):
        monitors = MonitorSeries(t=np.asarray(mon_t), E_total=np.asarray(mon_E),
                                 E_local=np.asarray(mon_El), sup_u=np.asarray(mon_sup))
        k = len(frames_t)
        return Trajectory(r=r.copy(), times=np.asarray(frames_t), u_frames=frames_u[:k],
                          ut_frames=frames_ut[:k], monitors=monitors, config=config,
                          completed=completed)

    # one level past the last, so that its u_t is centred too
    steps = _leapfrog(r, dr, dt, psi, n_steps + 1, config.nonlinearity, reach=reach, back=back,
                      quiet=quiet)
    try:
        for level, w_prev, w_curr, w_next, lo, hi in steps:
            if level % _MONITOR_STRIDE == 0 or level % stride == 0 or level == n_steps:
                # nodes below lo and from hi on hold zeros
                record(level, lo - 1, w_curr[lo - 1:hi + 1], w_next, w_prev)
    except NaNError as exc:
        exc.trajectory = partial_trajectory(completed=False) if len(frames_t) > 1 else None
        raise
    return partial_trajectory(completed=True)


def _zero_stack(shape):
    """Float64 zeros of ``shape`` in a private anonymous mapping (POSIX only), not np.zeros,
    whose huge pages would fault in the rows' unwritten tails: a page reads as zeros and
    takes no memory until it is written."""
    size = math.prod(shape)
    pages = mmap.mmap(-1, 8 * max(size, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(pages, float, count=size).reshape(shape)


def _leapfrog(r, dr, dt, psi, n_steps, nonlinearity, order=2, reach=None, sweeps=None,
              back=None, quiet=1e-10):
    """Leapfrog for w = r u from the jet psi_0..psi_2, whose Taylor step seeds level 1.

    Yields ``(level, w_prev, w_curr, w_next, lo, hi)`` for level = 0 .. n_steps - 1
    (``w_prev`` is None at level 0) in three reused buffers.  Nodes lo .. hi-1 are stepped,
    the rest hold zeros: all inner nodes, or with ``reach`` those with r - r_b <= reach + t
    and with ``back`` those with r - r_b > t - back, while the nodes the edge passes hold
    |w| at most ``quiet`` x the peak (see the module docstring).  ``order`` (2 or 4) is the
    spatial order of w_rr and u_r.  When N depends on u_t and ``sweeps`` is a list, each
    step appends its two fixed-point increments to it.  Raises StabilityError when the
    sweeps diverge and NaNError on blow-up, checked every 50 steps and on the last one.
    """
    n = len(r) - 1
    k = (dt / dr) ** 2
    inv_r = 1.0 / r
    two_dr_inv_r = _aligned(n + 1, 2.0 * dr * inv_r)
    # N is evaluated on raw stencil fields, u = W / r with W = w, u_r = G / (2 dr r) with
    # G = 2 dr (dw/dr - w / r), u_t = D / (dt r) with the lagged D = w - w_prev and, in
    # sweep 2, S / (2 dt r) with S = w_next - w_prev.  Each monomial's coefficient is
    # dt^2 r c(r) times its factors' scales, built once: monomials without u_t are added
    # once per step, those with it once per sweep, from ``lagged`` and then ``swept``.
    scales = (inv_r, inv_r / dt, 0.5 / dr * inv_r)
    fixed, lagged, swept = [], [], []
    for coeff, powers in nonlinearity.terms:
        c = dt * dt * r * (coeff(r) if callable(coeff) else coeff)
        factors = [i for i, p in enumerate(powers) for _ in range(p)]
        c = _aligned(n + 1, math.prod((scales[i] for i in factors), start=c))
        if powers[1]:
            lagged.append((c, factors))
            swept.append((_aligned(n + 1, c * 0.5 ** powers[1]), factors))
        else:
            fixed.append((c, factors))
    reads_ur = any(2 in factors for _, factors in fixed + swept)
    # three levels and the work arrays, allocated once: 2 w - w_prev, then the
    # nonlinearity's D then S, G, one monomial, the fixed sum and the two swept sums
    taylor = r * (psi[0] + dt * psi[1] + 0.5 * dt ** 2 * psi[2])
    prv, cur, nxt, scratch, t_buf, g_buf, term_buf, inc_buf, lag_buf, new_buf = (
        _aligned(n + 1, fill) for fill in [r * psi[0], taylor, 0.0] + [None] * 7)
    prv[[0, -1]] = cur[[0, -1]] = 0.0
    lo = 1
    yield 0, None, prv, cur, lo, n
    for level in range(1, n_steps):
        t = level * dt
        hi = n if reach is None else min(n, int((reach + t) / dr) + 1)
        a = slice(lo, hi)
        base, prv_a, cur_a = nxt[a], prv[a], cur[a]
        twice = np.multiply(cur_a, 2.0, out=scratch[a])
        # dt^2 w_rr first, then 2 w - w_prev added to it: this order keeps the
        # round-off floor of the decayed field near r_b at the 1e-16 level
        if order == 2:
            np.subtract(cur[lo + 1:hi + 1], twice, out=base)
            base += cur[lo - 1:hi - 1]
        else:
            base[1:-1] = (-cur[lo - 1:hi - 3] + 16.0 * cur[lo:hi - 2] - 30.0 * cur[lo + 1:hi - 1]
                          + 16.0 * cur[lo + 2:hi] - cur[lo + 3:hi + 1]) / 12.0
            base[0] = cur[lo + 1] - 2.0 * cur[lo] + cur[lo - 1]
            base[-1] = cur[hi] - 2.0 * cur[hi - 1] + cur[hi - 2]
        base *= k
        twice -= prv_a
        base += twice

        if nonlinearity.terms:
            term = term_buf[a]
            fields = (cur_a, t_buf[a], g_buf[a])  # W, D or S, G on nodes lo .. hi-1
            if reads_ur:
                g = fields[2]
                if order == 2:
                    np.subtract(cur[lo + 1:hi + 1], cur[lo - 1:hi - 1], out=g)
                else:
                    np.multiply(compat.deriv4(cur[lo - 1:hi + 1], dr)[1:-1], 2.0 * dr, out=g)
                g -= np.multiply(cur_a, two_dr_inv_r[a], out=term)
            inc = _sum_monomials(fixed, fields, a, inc_buf[a], term)
            if swept:
                ts = np.subtract(cur_a, prv_a, out=fields[1])  # D: the lagged first guess
                part = _sum_monomials(lagged, fields, a, lag_buf[a], term)
                # sweep 1 is measured against the linear base, sweep 2 against sweep 1
                np.add(inc, part, out=ts)
                delta1 = float(np.abs(ts, out=scratch[a]).max())
                ts += base
                ts -= prv_a  # S, from sweep 1's w_next
                new = _sum_monomials(swept, fields, a, new_buf[a], term)
                diff = np.subtract(new, part, out=part)
                delta2 = float(np.abs(diff, out=diff).max())
                if delta2 > 2.0 * delta1 and delta2 > 1e-6:
                    raise StabilityError(f"fixed-point sweep diverging at t = {t:.4f}")
                if sweeps is not None:
                    sweeps.append((delta1, delta2))
                inc += new
            base += inc

        if level % 50 == 0 or level == n_steps - 1:
            peak = float(np.abs(base).max())
            if not math.isfinite(peak) or peak > 1e12:
                raise NaNError(f"nonfinite values at t = {t:.4f}")
            # the edge, rounded up to a node 1 + 8 k that ``_aligned`` puts on a cache line, passes
            # a wake of |w| up to quiet x peak; anything more stops it
            if back is not None and (edge := 8 * -(-int((t - back) / dr) // 8) + 1) > lo:
                if max(np.abs(cur[lo:edge]).max(), np.abs(nxt[lo:edge]).max()) > quiet * peak:
                    back = None
                else:
                    prv[lo:edge] = cur[lo:edge] = nxt[lo:edge] = 0.0
                    lo = edge
        yield level, prv, cur, nxt, lo, hi
        prv, cur, nxt = cur, nxt, prv


def _aligned(n, fill=None):
    """n floats with element 1 on a 64-byte boundary, holding ``fill`` if given (else left
    unwritten): the step's passes from node 1 then move whole cache lines, which
    numpy's vector loops run up to twice as fast as lines split by an 8-byte offset."""
    raw = np.empty(n + 8)
    first = (-(raw.ctypes.data // 8) - 1) % 8
    out = raw[first:first + n]
    if fill is not None:
        out[:] = fill
    return out


def _sum_monomials(monomials, fields, a, out, term):
    """Sum of f_1 * ... * f_k * c[a] over ``monomials`` into ``out``, using ``term``: each
    product left to right, a repeated first factor as its square, the coefficient last and
    the first product straight into ``out``, the order of ``sum(math.prod(fields) * c[a]
    ...)`` that the tests compare bit for bit.  No monomials sum to zero."""
    if not monomials:
        out.fill(0.0)
    for j, (c, factors) in enumerate(monomials):
        prod = term if j else out
        if not factors:
            np.copyto(prod, c[a])
        elif len(factors) == 1:
            np.multiply(fields[factors[0]], c[a], out=prod)
        else:
            first, second = factors[:2]
            if first == second:
                np.square(fields[first], out=prod)
            else:
                np.multiply(fields[first], fields[second], out=prod)
            for i in factors[2:]:
                prod *= fields[i]
            prod *= c[a]
        if j:
            out += term
    return out


def _gradient_at(frames, r, it, ir):
    """d/dr of ``frames[it]`` at node ``ir``: the chord through its two neighbours, one-sided
    at the two ends.  It is ``np.gradient``'s value at the ends, and inside wherever
    r[ir + 1] - r[ir - 1] is exactly twice a constant spacing."""
    lo, hi = np.maximum(ir - 1, 0), np.minimum(ir + 1, len(r) - 1)
    return (frames[it, hi] - frames[it, lo]) / (r[hi] - r[lo])


def sample(traj: Trajectory, t, r):
    """(u, u_t, u_r) at (t, r) arrays: cubic Hermite in t, linear in r.

    u is the cubic in t through u and u_t at the two frames around each point, each
    taken linearly in r, and u_t is that cubic's t-derivative.  u_r is the same cubic
    through (u_r, d_r u_t), both taken at the corners by ``_gradient_at``.  At a frame time
    and a grid node u and u_t are the stored values.  A t or r outside the stored
    window or grid, NaN included, is a RangeError.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    times, radii = traj.times, traj.r
    if not np.all((t >= times[0] - 1e-12) & (t <= times[-1] + 1e-12)):
        raise RangeError("time outside the stored window")
    if not np.all((r >= radii[0] - 1e-12) & (r <= radii[-1] + 1e-12)):
        raise RangeError("radius outside the stored grid")
    it = np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2)
    ir = np.clip(np.searchsorted(radii, r) - 1, 0, len(radii) - 2)
    h = times[it + 1] - times[it]
    s = np.clip((t - times[it]) / h, 0.0, 1.0)
    wr = np.clip((r - radii[ir]) / (radii[ir + 1] - radii[ir]), 0.0, 1.0)
    # the Hermite basis of (f0, d0, f1, d1) on [t_i, t_i + h] and its d/dt, at s = (t - t_i) / h
    s1 = 1.0 - s
    weights = ((1.0 + 2.0 * s) * s1 * s1, h * s * s1 * s1, s * s * (3.0 - 2.0 * s), -h * s * s * s1)
    rates = (-6.0 * s * s1 / h, s1 * (1.0 - 3.0 * s), 6.0 * s * s1 / h, s * (3.0 * s - 2.0))

    def hermite(at):
        """The cubic through at(stack, i, j) of the u and u_t stacks at the two frames, each
        taken linearly in r, and its t-derivative."""
        ends = [at(stack, i, ir) * (1.0 - wr) + at(stack, i, ir + 1) * wr
                for i in (it, it + 1) for stack in (traj.u_frames, traj.ut_frames)]
        return (sum(w * e for w, e in zip(weights, ends)),
                sum(w * e for w, e in zip(rates, ends)))

    u, u_t = hermite(lambda stack, i, j: stack[i, j])
    u_r, _ = hermite(lambda stack, i, j: _gradient_at(stack, radii, i, j))
    return u, u_t, u_r


@dataclass(frozen=True)
class CylinderGrid:
    """Requested (T, R) lattice for the pushforward of a trajectory: n_T rows from
    T = 0 to T_max (default: the highest row the run covers), n_R nodes on [0, pi]."""

    n_T: int = 160
    n_R: int = 400
    T_max: float | None = None

    def __post_init__(self):
        """Raise ConfigError, naming the field, for fewer than one row or two nodes a row,
        and for a T_max that is given but not positive and finite."""
        for name, value, least in (("n_T", self.n_T, 1), ("n_R", self.n_R, 2)):
            if not value >= least:
                raise ConfigError(f"CylinderGrid.{name} must be at least {least}, got {value}")
        if self.T_max is not None and not (self.T_max > 0 and math.isfinite(self.T_max)):
            raise ConfigError(f"CylinderGrid.T_max must be positive and finite, got {self.T_max}")


def transform_to_cylinder(traj: Trajectory, grid: CylinderGrid) -> cylinder.CylinderField:
    """Push a trajectory forward to the cylinder: v = u~ / Omega on a (T, R) grid.

    First derivatives of v are assembled from the stored (u_t, u_r), not by grid
    differencing of interpolated values: d_T = a d_t + b d_r and d_R = b d_t + a d_r
    with a = (1 + t^2 + r^2) / 2 and b = t r (conformal Killing fields of Minkowski
    space), and d_T Omega = -sin T, d_R Omega = -sin R.  Nodes whose preimage lies
    outside the stored coverage are masked out; r >= r_b is the region above the
    obstacle boundary curve.  Raises CoverageError when the stored t_max cannot
    support a requested row even at the boundary.
    """
    t_cap = traj.times[-1] - _COVERAGE_MARGIN
    if t_cap <= 0:
        raise CoverageError("trajectory too short for any cylinder row")
    T_cap = 2.0 * math.atan(t_cap)
    if grid.T_max is not None:
        T_max = grid.T_max
        if T_max > T_cap:
            raise CoverageError(
                f"row T = {T_max:.4f} needs t > {t_cap:.2f}; "
                f"stored t_max is {traj.times[-1]:.2f}"
            )
    else:
        # highest row whose first off-pole grid node (R = d, one spacing) still
        # has a Minkowski preimage within coverage: t(T, d) = sin T / (cos T + cos d)
        # = t_cap, i.e. sin T - t_cap cos T = t_cap cos d
        d = math.pi / (grid.n_R - 1)
        T_max = math.atan(t_cap) + math.asin(t_cap * math.cos(d) / math.sqrt(1.0 + t_cap ** 2))
        T_max = min(T_max - 1e-9, T_cap - 1e-6)
    T = np.linspace(0.0, T_max, grid.n_T)
    R = np.linspace(0.0, math.pi, grid.n_R)

    TT, RR = np.meshgrid(T, R, indexing="ij")
    t_pre, r_pre = geometry.minkowski_coords(TT, RR)
    mask = (geometry.in_diamond(TT, RR) & (t_pre >= traj.times[0]) & (t_pre <= traj.times[-1])
            & (r_pre >= traj.r[0]) & (r_pre <= traj.r[-1]))
    empty = ~mask.any(axis=1)  # every requested row must carry a covered node
    if empty.any():
        raise CoverageError(f"row T = {T[np.argmax(empty)]:.4f} has no covered nodes")

    ts, rs = t_pre[mask], r_pre[mask]
    u, u_t, u_r = sample(traj, ts, rs)
    om = geometry.omega_minkowski(ts, rs)
    a, b = 0.5 * (1.0 + ts * ts + rs * rs), ts * rs
    vals, d_T, d_R = np.zeros((3,) + TT.shape)
    vals[mask] = u / om
    d_T[mask] = (a * u_t + b * u_r + u * np.sin(TT[mask]) / om) / om
    d_R[mask] = (b * u_t + a * u_r + u * np.sin(RR[mask]) / om) / om
    vals[~mask] = np.nan
    return cylinder.CylinderField(T=T, R=R, values=vals, mask=mask, d_T=d_T, d_R=d_R)


def read_config(path, schema=_SCHEMA) -> configparser.ConfigParser:
    """Parse an INI config, rejecting sections or keys that ``schema`` does not list.
    A file that cannot be opened, is not UTF-8 or is not INI is a ParseError naming it.
    Values are read as written: a ``%`` is a character, not an interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in schema:
            raise ParseError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in schema[section]:
                raise ParseError(f"{path}: unknown key '{key}' in [{section}]")
    return parser


def config_value(cfg: configparser.ConfigParser, section, key, default, kind=float):
    """``cfg.getfloat``, or ``cfg.getint`` for ``kind=int``, with a malformed value a
    ParseError that names the key."""
    try:
        return (cfg.getint if kind is int else cfg.getfloat)(section, key, fallback=default)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key}: {exc}") from exc


def solver_config_from(cfg: configparser.ConfigParser) -> SolverConfig:
    """The run a config describes; a key it leaves out keeps the dataclass default."""
    base = SolverConfig()
    name = cfg.get("problem", "nonlinearity", fallback=base.nonlinearity.name)
    if name not in compat.BUILTIN_NONLINEARITIES:
        raise ParseError(
            f"unknown nonlinearity '{name}'; "
            f"choose from {sorted(compat.BUILTIN_NONLINEARITIES)}"
        )
    return SolverConfig(
        obs=geometry.ObstacleSpec(config_value(cfg, "problem", "r_b", base.obs.r_b)),
        nonlinearity=compat.BUILTIN_NONLINEARITIES[name],
        data=DataSpec(**{key: config_value(cfg, "data", key, getattr(base.data, key))
                         for key in _SCHEMA["data"]}),
        epsilon=config_value(cfg, "problem", "epsilon", base.epsilon),
        **{key: config_value(cfg, "grid", key, getattr(base, key)) for key in _SCHEMA["grid"]},
    )


def config_sections(cfg: SolverConfig) -> dict[str, dict[str, str]]:
    """``cfg`` as the schema's sections and keys, which ``solver_config_from`` reads
    back equal: the record of a run in the store, the manifest and the digests.

    Raises ConfigError for a run no config file can describe: one with a
    nonlinearity other than the builtin of its name.
    """
    if compat.BUILTIN_NONLINEARITIES.get(cfg.nonlinearity.name) != cfg.nonlinearity:
        raise ConfigError("only a run of a builtin nonlinearity can be recorded as a config")
    return {
        "problem": {"nonlinearity": cfg.nonlinearity.name, "epsilon": repr(float(cfg.epsilon)),
                    "r_b": repr(float(cfg.obs.r_b))},
        "grid": {key: repr(float(getattr(cfg, key))) for key in _SCHEMA["grid"]},
        "data": {key: repr(float(getattr(cfg.data, key))) for key in _SCHEMA["data"]},
    }


def write_series_csv(path, header: list[str], columns) -> None:
    """``np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
    header=",".join(header), comments="")`` byte for byte; each ``%`` formats 256 rows,
    fast and in bounded memory.  17 significant digits read every float64 back exactly."""
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in (data[i:i + 256] for i in range(0, len(data), 256)):
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def check_snapshot_every(value: float) -> None:
    """Raise ConfigError unless ``value`` is finite and >= 0 (0 keeps every frame): NaN
    would keep only the first and last frames, and a negative value every frame."""
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"[output] snapshot_every must be finite and >= 0, got {value}")


def write_outputs(traj: Trajectory, outdir, snapshot_every: float = 5.0) -> list[str]:
    """Write the kept frames as ``r.npy``, ``times.npy``, ``u.npy`` and ``u_t.npy``, the
    monitors as ``monitors.csv``, and ``trajectory.ini``: the run's config sections plus
    ``[trajectory] completed``.  A frame is kept ``snapshot_every`` time units or more
    after the last kept one, from the first; the final frame is always kept.

    Returns the written paths.  Raises ConfigError, before writing anything, for a run
    that ``config_sections`` cannot record and for a ``snapshot_every`` that
    ``check_snapshot_every`` rejects.
    """
    check_snapshot_every(snapshot_every)
    meta = configparser.ConfigParser()
    meta.read_dict({**config_sections(traj.config),
                    "trajectory": {"completed": str(traj.completed)}})
    os.makedirs(outdir, exist_ok=True)
    next_t = 0.0
    kept = []
    for i, t in enumerate(traj.times):
        if t >= next_t - 1e-9 or i == len(traj.times) - 1:
            kept.append(i)
            next_t = t + snapshot_every
    arrays = (traj.r, traj.times[kept], traj.u_frames[kept], traj.ut_frames[kept])
    paths = [os.path.join(outdir, f"{name}.npy") for name in _STORE_ARRAYS]
    for path, array in zip(paths, arrays):
        np.save(path, array, allow_pickle=False)
    m = traj.monitors
    mon_path = os.path.join(outdir, "monitors.csv")
    write_series_csv(mon_path, ["t", "E_total", "E_local", "sup_u"],
                     [m.t, m.E_total, m.E_local, m.sup_u])
    meta_path = os.path.join(outdir, "trajectory.ini")
    with open(meta_path, "w") as fh:
        meta.write(fh)
    return paths + [mon_path, meta_path]


def load_trajectory(outdir) -> Trajectory:
    """Rebuild the Trajectory of the frames ``write_outputs`` kept, bit for bit, with the
    config that ``trajectory.ini`` records.  A store file that is missing or unreadable, an
    array not float64 or not of its written shape (frames are len(times) x len(r), the
    monitors 4 columns), a value not finite, and r or times not two or more strictly
    increasing values are ParseErrors that name the file."""
    meta_path = os.path.join(outdir, "trajectory.ini")
    meta = read_config(meta_path, {**_SCHEMA, "trajectory": ("completed",)})
    try:
        completed = meta.getboolean("trajectory", "completed")
    except (configparser.Error, ValueError) as exc:
        raise ParseError(f"{meta_path}: [trajectory] completed: {exc}") from exc
    paths = [os.path.join(outdir, f"{name}.npy") for name in _STORE_ARRAYS]
    paths.append(os.path.join(outdir, "monitors.csv"))
    arrays = []
    for path in paths:
        try:
            arrays.append(np.load(path, allow_pickle=False) if path.endswith(".npy")
                          else np.loadtxt(path, delimiter=",", skiprows=1))
        except (OSError, ValueError, EOFError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    r, times, u, ut, mon = arrays
    n_t, n_r = times.size, r.size
    shapes = [(n_r,), (n_t,), (n_t, n_r), (n_t, n_r), (len(mon), 4)]
    for path, array, shape in zip(paths, arrays, shapes):
        if array.dtype != np.float64 or array.shape != shape:
            raise ParseError(f"{path}: expected float64 values shaped {shape}, "
                             f"got {array.dtype} {array.shape}")
        if not np.isfinite(array).all():
            raise ParseError(f"{path}: values must be finite")
    for path, array in zip(paths, (r, times)):
        if not (array.size > 1 and (np.diff(array) > 0).all()):
            raise ParseError(f"{path}: values must be two or more, strictly increasing")
    monitors_ = MonitorSeries(t=mon[:, 0], E_total=mon[:, 1], E_local=mon[:, 2], sup_u=mon[:, 3])
    return Trajectory(r=r, times=times, u_frames=u, ut_frames=ut, monitors=monitors_,
                      config=solver_config_from(meta), completed=completed)


def reference_samples(
    f: compat.RadialProfile,
    g: compat.RadialProfile,
    F: compat.NonlinearitySpec,
    dt: float,
    n_samples: int,
) -> list[np.ndarray]:
    """Fine-step leapfrog samples u(j dt, .), j = 0..n_samples-1, on the profile grid,
    each dt taken in the fewest equal steps of at most 0.25 dr; a negative dt steps
    backward in time.

    Used as the independent reference for the jet recursion; Dirichlet at both
    grid ends, so the data must be supported away from them for the sampled
    window.  Space is discretized at fourth order (falling back to second
    order on the two nodes adjacent to each end) so that high time
    derivatives of the samples are not polluted by the scheme's own
    truncation error.
    """
    dr = f.dr
    m = max(1, int(math.ceil(abs(dt) / (0.25 * dr))))
    dt_int = dt / m
    r = f.r
    psi = [p.values for p in compat.compute_jet(f, g, F, K=2).psi]
    out = [f.values.copy()]
    for level, _, _, w_next, _, _ in _leapfrog(r, dr, dt_int, psi, (n_samples - 1) * m, F,
                                               order=4):
        if (level + 1) % m == 0:
            out.append(w_next / r)
    return out
