"""Exterior radial solver: analytic oracles, conservation, convergence, I/O."""

import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from penwave import analysis, compat, geometry, solver
from penwave.errors import ConfigError, NaNError, RangeError, StabilityError


def short_config(**overrides):
    defaults = dict(
        data=solver.DataSpec(center=1.5, width=0.25),
        epsilon=0.01,
        dr=5e-3,
        cfl=0.45,
        t_max=8.0,
        r_max=14.0,
    )
    defaults.update(overrides)
    return solver.SolverConfig(**defaults)


@pytest.fixture(scope="module")
def short_run():
    return solver.run(short_config())


def free_space_solution(t, r, center, width, amp):
    """Spherically symmetric free wave from (f, g) = (0, amp * gaussian).

    u(t, r) = (1/2r) * integral_{r-t}^{r+t} s g(s) ds with s g(s) extended
    oddly; the antiderivative of s * exp(-((s-c)/w)^2) is closed-form in erf.
    """

    def antideriv(s):
        z = (s - center) / width
        return amp * (
            -0.5 * width**2 * np.exp(-(z**2))
            + 0.5 * center * width * math.sqrt(math.pi) * erf(z)
        )

    def odd_antideriv(s):
        # antiderivative of the odd extension of s g(s), anchored at 0
        return np.where(s >= 0, antideriv(s), antideriv(-s)) - antideriv(0.0)

    return (odd_antideriv(r + t) - odd_antideriv(r - t)) / (2.0 * r)


class TestConfigValidation:
    def test_cfl_ceiling(self):
        with pytest.raises(StabilityError):
            short_config(cfl=0.95).validate()

    def test_nonpositive_parameters(self):
        with pytest.raises(ConfigError):
            short_config(cfl=-0.1).validate()
        with pytest.raises(ConfigError):
            short_config(epsilon=0.0).validate()

    def test_no_reflection_bound(self):
        with pytest.raises(ConfigError):
            short_config(t_max=20.0, r_max=14.0).validate()

    def test_default_config_is_valid(self):
        solver.SolverConfig().validate()

    @pytest.mark.parametrize("field,overrides", [
        ("dr", dict(dr=0.0)),
        ("dr", dict(dr=-5e-3)),
        ("dr", dict(dr=math.nan)),
        ("t_max", dict(t_max=-1.0)),
        ("data.width", dict(data=solver.DataSpec(width=-0.25))),
    ], ids=["dr=0", "dr=-5e-3", "dr=nan", "t_max=-1", "width=-0.25"])
    def test_bad_setting_is_rejected_naming_its_field(self, field, overrides):
        # each of these used to fail with a bare ZeroDivisionError, ValueError,
        # TypeError or IndexError, or to run with the value silently replaced
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}\b"):
            solver.run(short_config(**overrides))

    def test_grid_coarser_than_r_b_is_rejected(self):
        # E_local is taken out to 2 r_b: with dr > r_b it spans one node and reads 0
        with pytest.raises(ConfigError, match=r"^dr = 0\.25 must not exceed r_b = 0\.2\b"):
            solver.run(solver.SolverConfig(dr=0.25, t_max=2.0, r_max=8.0))
        solver.SolverConfig(dr=0.2, t_max=2.0, r_max=8.0).validate()


class TestLinearOracles:
    def test_matches_free_space_solution_before_boundary_interaction(self, short_run):
        # data supported in [0.0, 3.0]; the wave reaches r_b = 0.2 at t ~ 0.3,
        # but the region r > r_b + t is causally untouched by the boundary
        traj = short_run
        eps = traj.config.epsilon
        for t in (1.0, 2.5, 4.0):
            r = np.linspace(traj.config.obs.r_b + t + 0.5, 9.0, 200)
            got, _, _ = solver.sample(traj, np.full_like(r, t), r)
            ref = free_space_solution(t, r, 1.5, 0.25, eps)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) < 0.01 * scale, f"t={t}"

    def test_finite_propagation_speed(self, short_run):
        traj = short_run
        support = traj.config.data.support_radius
        for i, t in enumerate(traj.times):
            ahead = traj.r > support + t + 0.2
            assert np.max(np.abs(traj.u_frames[i][ahead])) < 1e-12

    def test_dirichlet_boundary_exact(self, short_run):
        assert np.max(np.abs(short_run.u_frames[:, 0])) == 0.0

    def test_no_reflection_from_outer_truncation(self, short_run):
        # the outer boundary sits beyond the causal range: the last frame is
        # still numerically zero near r_max
        tail = short_run.r > short_run.config.data.support_radius + short_run.config.t_max + 0.5
        assert np.max(np.abs(short_run.u_frames[-1][tail])) < 1e-12

    def test_amplitude_scaling_in_the_linear_regime(self, short_run):
        double = solver.run(short_config(epsilon=0.02))
        ratio = double.u_frames[-1] / np.where(
            np.abs(short_run.u_frames[-1]) > 1e-10, short_run.u_frames[-1], np.nan
        )
        finite = np.isfinite(ratio)
        assert finite.any()
        assert np.allclose(ratio[finite], 2.0, atol=1e-9)

    def test_energy_conservation(self, short_run):
        E = short_run.monitors.E_total
        drift = np.max(np.abs(E - E[0])) / E[0]
        assert drift < 1e-3

    def test_second_order_convergence(self):
        # error against the closed-form free wave at t = 2, refining dr
        errs = []
        for dr in (2e-2, 1e-2, 5e-3):
            traj = solver.run(short_config(dr=dr, t_max=2.0, r_max=8.0))
            t_eval = float(traj.times[-1])  # last completed step, < t_max by < dt
            r = np.linspace(2.8, 6.0, 150)
            got, _, _ = solver.sample(traj, np.full_like(r, t_eval), r)
            ref = free_space_solution(t_eval, r, 1.5, 0.25, traj.config.epsilon)
            errs.append(np.max(np.abs(got - ref)))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5


class TestNonlinearRuns:
    def test_null_form_run_stays_bounded(self):
        traj = solver.run(
            short_config(nonlinearity=compat.Q0_RADIAL, t_max=6.0, r_max=12.0)
        )
        assert traj.completed
        assert np.max(traj.monitors.sup_u) < 1.0

    def test_nonlinearity_perturbs_at_quadratic_order(self):
        lin = solver.run(short_config(t_max=3.0, r_max=9.0))
        non = solver.run(
            short_config(nonlinearity=compat.Q0_RADIAL, t_max=3.0, r_max=9.0)
        )
        diff = np.max(np.abs(lin.u_frames[-1] - non.u_frames[-1]))
        peak = np.max(np.abs(lin.u_frames[-1]))
        assert 0 < diff < 0.1 * peak  # small but nonzero: genuinely nonlinear

    def test_forcing_source_is_active(self):
        forced = solver.run(
            short_config(
                epsilon=0.01,
                data=solver.DataSpec(g_amp=0.0),
                t_max=2.0,
                r_max=8.0,
                forcing_fn=lambda t, r: np.exp(-((r - 1.5) ** 2) / 0.1) * math.exp(-t),
            )
        )
        assert np.max(np.abs(forced.u_frames[-1])) > 1e-4

    def test_monomial_sums_equal_math_prod_bit_for_bit(self):
        rng = np.random.default_rng(0)
        fields = [rng.standard_normal(50) for _ in range(3)]
        a = slice(1, 51)
        monomials = [(rng.standard_normal(52), factors)
                     for factors in ([0, 2, 2], [1, 1], [1], [], [0, 1, 1])]
        expected = sum(math.prod(fields[i] for i in factors) * c[a] for c, factors in monomials)
        got = solver._sum_monomials(monomials, fields, a, np.empty(50), np.empty(50))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [3, 10, 1001])
    def test_aligned_array_puts_node_one_on_a_cache_line(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        for y in (solver._aligned(n, x), solver._aligned(n)):
            assert y.shape == (n,) and y.flags.c_contiguous and (y.ctypes.data + 8) % 64 == 0
        assert np.array_equal(solver._aligned(n, x), x)

    def test_light_cone_window_matches_full_grid(self):
        # N(0) = 0 without forcing steps only the light-cone window; a zero
        # forcing makes the same problem step the full grid
        config = short_config(nonlinearity=compat.Q0_RADIAL, t_max=6.0, r_max=12.0)
        windowed = solver.run(config)
        full = solver.run(replace(config, forcing_fn=lambda t, r: 0.0 * r))
        wm, fm = windowed.monitors, full.monitors
        # each series is compared on the scale of its kind: bands sample u,
        # and the local energy is a part of the total
        u_scale = np.max(np.abs(full.u_frames))
        e_scale = np.max(fm.E_total)
        pairs = [(windowed.u_frames, full.u_frames, u_scale),
                 (windowed.ut_frames, full.ut_frames, np.max(np.abs(full.ut_frames))),
                 (wm.E_total, fm.E_total, e_scale), (wm.E_local, fm.E_local, e_scale),
                 (wm.sup_u, fm.sup_u, u_scale)]
        pairs += [(wm.bands[b], fm.bands[b], u_scale) for b in fm.bands]
        assert np.array_equal(windowed.times, full.times)
        for got, ref, scale in pairs:
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale


def reference_step(r, dr, dt, prv, cur, hi, t, nonlinearity, forcing, order):
    """One step of the scheme written out plainly: u, u_t and u_r as fields, each
    monomial a ``math.prod`` and two fixed-point sweeps from the lagged u_t.
    Returns w_next on nodes 1 .. hi-1 and the two sweep increments (None
    without a monomial in u_t)."""
    a, inv_r = slice(1, hi), 1.0 / r[1:hi]
    if order == 2:
        w_rr = cur[2:hi + 1] - 2.0 * cur[a] + cur[:hi - 1]
        dw = (cur[2:hi + 1] - cur[:hi - 1]) / (2.0 * dr)
    else:
        w_rr = np.empty(hi - 1)
        w_rr[1:-1] = (-cur[:hi - 3] + 16.0 * cur[1:hi - 2] - 30.0 * cur[2:hi - 1]
                      + 16.0 * cur[3:hi] - cur[4:hi + 1]) / 12.0
        w_rr[[0, -1]] = (cur[2] - 2.0 * cur[1] + cur[0], cur[hi] - 2.0 * cur[hi - 1] + cur[hi - 2])
        dw = compat.deriv4(cur[:hi + 1], dr)[a]
    linear = (dt / dr) ** 2 * w_rr + (2.0 * cur[a] - prv[a])
    u = cur[a] * inv_r
    u_r = (dw - u) * inv_r

    def monomials(u_t, swept):
        total = np.zeros(hi - 1)
        for coeff, powers in nonlinearity.terms:
            if bool(powers[1]) == swept:
                c = dt * dt * r[a] * (coeff(r[a]) if callable(coeff) else coeff)
                factors = [f for f, p in zip((u, u_t, u_r), powers) for _ in range(p)]
                total += math.prod(factors, start=c)
        return total

    inc = monomials(None, swept=False)
    if forcing is not None:
        inc += dt * dt * r[a] * np.broadcast_to(forcing(t, r), r.shape)[a]
    if not any(powers[1] for _, powers in nonlinearity.terms):
        return linear + inc, None
    first = monomials((cur[a] - prv[a]) / dt * inv_r, swept=True)
    second = monomials((linear + inc + first - prv[a]) / (2.0 * dt) * inv_r, swept=True)
    deltas = (np.max(np.abs(inc + first)), np.max(np.abs(second - first)))
    return linear + inc + second, deltas


U_Q0 = compat.NonlinearitySpec("u-q0", ((lambda r: 1.0 + 0.1 * np.sin(r), (1, 2, 0)),
                                        (-1.0, (1, 0, 2))))


class TestStepAgainstReferenceScheme:
    """The leapfrog core, which evaluates N on raw stencil differences with each
    factor's scale folded into its monomial's coefficient, against the scheme
    written out with u, u_t and u_r."""

    @pytest.mark.parametrize("nonlinearity,epsilon,forcing,order,cfl", [
        (compat.Q0_RADIAL, 0.5, None, 2, 0.9),
        (compat.DT_SQUARED, 0.5, None, 2, 0.9),
        (U_Q0, 0.5, None, 2, 0.9),
        (compat.Q0_RADIAL, 0.2, lambda t, r: np.exp(-((r - 1.5) ** 2) / 0.1) * math.exp(-t), 2, 0.9),
        (compat.Q0_RADIAL, 0.5, None, 4, 0.5),
    ], ids=["q0", "dt-squared", "u-q0-callable", "q0-forced", "q0-order-4"])
    def test_every_level_and_sweep_matches(self, nonlinearity, epsilon, forcing, order, cfl):
        dr = 0.01
        dt, r_b, r_max = cfl * dr, 0.2, 8.0
        r = r_b + dr * np.arange(int(round((r_max - r_b) / dr)) + 1)
        f, g = solver.DataSpec().profiles(r_b, r[-1], dr, epsilon)
        psi = [p.values for p in compat.compute_jet(f, g, nonlinearity, K=2).psi]
        n_steps = int(round(3.0 / dt))
        reach = None
        if forcing is None and order == 2:  # as run: the light-cone window, data cut at its support
            support = solver.DataSpec().support_radius
            reach, psi = support + 2.0, [np.where(r > support, 0.0, p) for p in psi]
        sweeps, levels = [], []
        for level, prv, cur, nxt, hi in solver._leapfrog(r, dr, dt, psi, n_steps, nonlinearity,
                                                         forcing, order, reach, sweeps):
            levels.append((level, None if prv is None else prv.copy(), cur.copy(), nxt.copy(), hi))
        deltas = []
        for level, prv, cur, nxt, hi in levels[1:]:
            want, step_deltas = reference_step(r, dr, dt, prv, cur, hi, level * dt,
                                               nonlinearity, forcing, order)
            assert np.max(np.abs(nxt[1:hi] - want)) <= 1e-12 * np.max(np.abs(want))
            assert not nxt[hi:].any() and nxt[0] == 0.0
            if step_deltas is not None:
                deltas.append(step_deltas)
        taylor = r * (psi[0] + dt * psi[1] + 0.5 * dt ** 2 * psi[2])
        assert np.array_equal(levels[0][3][1:-1], taylor[1:-1])
        assert len(sweeps) == len(deltas)
        if deltas:
            # sweep 2's increment is the difference of two swept sums of sweep 1's
            # size, so their rounding is measured against sweep 1's increment
            got, want = np.array(sweeps), np.array(deltas)
            assert np.max(np.abs(got - want) / want[:, :1]) <= 1e-12


def run_recording_sweeps(monkeypatch, config):
    """solver.run, with the two fixed-point increments of every step."""
    sweeps = []
    leapfrog = solver._leapfrog
    monkeypatch.setattr(solver, "_leapfrog",
                        lambda *args, **kw: leapfrog(*args, sweeps=sweeps, **kw))
    return solver.run(config), np.array(sweeps)


class TestGuards:
    def test_trajectory_needs_an_increasing_grid(self, short_run):
        for r in (short_run.r[::-1], np.full_like(short_run.r, 0.5)):
            with pytest.raises(ConfigError, match="radial grid must be strictly increasing"):
                replace(short_run, r=r)

    def test_fixed_point_divergence_raises(self):
        # measured t = 1.6155, the same step as the scheme written out with u, u_t and u_r
        config = short_config(nonlinearity=compat.DT_SQUARED, epsilon=1.0, dr=0.01,
                              t_max=4.0, r_max=10.0)
        with pytest.raises(StabilityError, match=r"^fixed-point sweep diverging at t = 1\.6155$"):
            solver.run(config)

    def test_fixed_point_divergence_raises_at_the_default_cfl(self):
        # measured t = 1.6290 at cfl 0.9 (1.6155 at 0.45)
        config = short_config(nonlinearity=compat.DT_SQUARED, epsilon=1.0, dr=0.01,
                              cfl=solver.SolverConfig().cfl, t_max=4.0, r_max=10.0)
        with pytest.raises(StabilityError, match=r"^fixed-point sweep diverging at t = 1\.6290$"):
            solver.run(config)

    @pytest.mark.parametrize("nonlinearity", [compat.Q0_RADIAL, compat.DT_SQUARED],
                             ids=lambda spec: spec.name)
    def test_fixed_point_sweeps_contract_at_the_default_cfl(self, monkeypatch, nonlinearity):
        # sweep 2 over sweep 1 measured at most 0.15 (Q0) and 0.23 (DT_SQUARED)
        config = short_config(nonlinearity=nonlinearity, epsilon=0.5, dr=0.01,
                              cfl=solver.SolverConfig().cfl, t_max=4.0, r_max=10.0)
        traj, sweeps = run_recording_sweeps(monkeypatch, config)
        assert traj.completed
        assert sweeps.shape == (int(round(config.t_max / config.dt)) - 1, 2)
        assert np.all(sweeps[:, 1] < sweeps[:, 0])

    def test_blow_up_carries_the_partial_trajectory(self):
        config = short_config(
            dr=0.01, t_max=4.0, r_max=10.0,
            forcing_fn=lambda t, r: 1e30 * np.exp(-((r - 1.5) ** 2)),
        )
        with pytest.raises(NaNError) as info:
            solver.run(config)
        traj = info.value.trajectory
        assert traj.completed is False
        assert 0.0 < traj.times[-1] < config.t_max
        assert len(traj.monitors.t) > 0


def monitor_energy(d, g, span, dr):
    """The monitors' energy as the solver sums it: 4 pi dr (sum d^2 / span^2 + sum g^2
    less half the two end terms), d = span r u_t and g = r u_r."""
    ends = (d[0] ** 2 + d[-1] ** 2) / span ** 2 + g[0] ** 2 + g[-1] ** 2
    return 4.0 * math.pi * dr * (np.einsum("i,i->", d, d) / span ** 2
                                 + np.einsum("i,i->", g, g) - 0.5 * ends)


class TestMonitorReuse:
    @pytest.mark.parametrize("nonlinearity", [compat.Q0_RADIAL, compat.ZERO, compat.DT_SQUARED],
                             ids=lambda spec: spec.name)
    def test_monitors_equal_a_recomputation_at_every_level(self, monkeypatch, nonlinearity):
        # the step hands no u_r to the monitors: record differentiates every
        # monitor level itself, for any nonlinearity
        config = short_config(nonlinearity=nonlinearity, epsilon=0.5, dr=0.01,
                              cfl=solver.SolverConfig().cfl, t_max=4.0, r_max=10.0)
        stride = solver._MONITOR_STRIDE
        levels, jet = [], []
        leapfrog = solver._leapfrog

        def capture(*args, **kw):
            jet.append(args[3])
            for step in leapfrog(*args, **kw):
                level, prv, cur, nxt, hi = step
                if level % stride == 0 or level == args[4] - 1:
                    levels.append((level, None if prv is None else prv.copy(), cur.copy(),
                                   nxt.copy(), hi))
                yield step

        monkeypatch.setattr(solver, "_leapfrog", capture)
        traj = solver.run(config)
        monkeypatch.undo()

        r, dr, dt = traj.r, config.dr, config.dt
        inv_r, offsets = 1.0 / r, np.asarray(solver.DEFAULT_BANDS)
        n_local = np.count_nonzero(r <= 2.0 * config.obs.r_b)
        t, E, E_local, sup, bands = [], [], [], [], []
        trapezoid, trapezoid_local, no_ends, no_ends_local = [], [], [], []

        def monitor(level, w, d, span):
            e = len(w)
            u = w * inv_r[:e]
            g = np.empty(e)
            g[1:-1] = w[2:] - w[:-2]
            g[0], g[-1] = -3.0 * w[0] + 4.0 * w[1] - w[2], 3.0 * w[-1] - 4.0 * w[-2] + w[-3]
            g /= 2.0 * dr
            g -= u
            t.append(level * dt)
            E.append(monitor_energy(d, g, span, dr))
            E_local.append(monitor_energy(d[:n_local], g[:n_local], span, dr))
            sup.append(np.max(np.abs(u)))
            points = level * dt - offsets
            row = np.interp(points, r[:e], u)
            row[(points < r[0]) | (points > r[-1])] = 0.0
            bands.append(row)
            # the definition, built independently: the trapezoid of r^2 (u_t^2 + u_r^2)
            # with u_r from np.gradient, and the same sum without its half end terms
            u_r = (np.gradient(w, dr, edge_order=2) - u) * inv_r[:e]
            density = (r[:e] * d / span * inv_r[:e]) ** 2 + (r[:e] * u_r) ** 2
            trapezoid.append(4.0 * math.pi * np.trapezoid(density, dx=dr))
            trapezoid_local.append(4.0 * math.pi * np.trapezoid(density[:n_local], dx=dr))
            no_ends.append(4.0 * math.pi * dr * density.sum())
            no_ends_local.append(4.0 * math.pi * dr * density[:n_local].sum())

        for level, prv, cur, nxt, hi in levels:
            e = hi + 1
            if level % stride == 0:
                if level == 0:
                    monitor(level, cur[:e], r * jet[0][1], 1.0)
                else:
                    monitor(level, cur[:e], nxt[:e] - prv[:e], 2.0 * dt)
        last = levels[-1]  # its w_next is the final level
        monitor(last[0] + 1, last[3], last[3] - last[2], dt)

        m = traj.monitors
        for got, want in ((m.t, t), (m.E_total, E), (m.E_local, E_local), (m.sup_u, sup)):
            assert np.array_equal(got, want)
        for i, b in enumerate(solver.DEFAULT_BANDS):
            assert np.array_equal(m.bands[b], np.array(bands)[:, i])
        # the sums are the trapezoid to rounding, and dropping the half end terms is not
        for got, want, crude in ((m.E_total, trapezoid, no_ends),
                                 (m.E_local, trapezoid_local, no_ends_local)):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - np.array(want))) <= 4e-15 * scale
            assert np.max(np.abs(np.array(crude) - want)) > 4e-15 * scale


class TestSampling:
    def test_bilinear_interpolation_consistency(self, short_run):
        traj = short_run
        i, j = len(traj.times) // 2, len(traj.r) // 3
        (u,), (u_t,), _ = solver.sample(traj, [traj.times[i]], [traj.r[j]])
        assert u == pytest.approx(traj.u_frames[i, j], rel=1e-12)
        assert u_t == pytest.approx(traj.ut_frames[i, j], rel=1e-12)

    def test_out_of_range_rejected(self, short_run):
        with pytest.raises(RangeError):
            solver.sample(short_run, [-1.0], [2.0])
        with pytest.raises(RangeError):
            solver.sample(short_run, [1.0], [1e6])

    def test_vectorized_sampling_matches_scalar(self, short_run):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.5, 7.5, 20)
        r = rng.uniform(0.5, 10.0, 20)
        u, u_t, u_r = solver.sample(short_run, t, r)
        for k in range(20):
            (su,), (sut,), (sur,) = solver.sample(short_run, [t[k]], [r[k]])
            assert u[k] == pytest.approx(su, rel=1e-12)
            assert u_t[k] == pytest.approx(sut, rel=1e-12)
            assert u_r[k] == pytest.approx(sur, rel=1e-12)


class TestRadialGradient:
    """u_r is np.gradient(u_frames, r, axis=1), evaluated only where it is read."""

    @staticmethod
    def assert_matches_np_gradient(frames, r):
        expected = np.gradient(frames, r, axis=1)
        nodes = np.arange(len(r))
        rows = np.stack([solver._gradient_at(frames, r, i, nodes) for i in range(len(frames))])
        assert np.array_equal(rows, expected)
        # scattered (frame, node) pairs, both end nodes among them
        rng = np.random.default_rng(3)
        ir = np.r_[0, len(r) - 1, rng.integers(0, len(r), 200), 0, len(r) - 1]
        it = rng.integers(0, len(frames), len(ir))
        assert np.array_equal(solver._gradient_at(frames, r, it, ir), expected[it, ir])

    def test_windowed_q0_frames_with_their_zero_tail(self):
        traj = solver.run(short_config(nonlinearity=compat.Q0_RADIAL, dr=0.01, t_max=4.0,
                                       r_max=14.0))
        assert np.all(traj.u_frames[:, -300:] == 0.0)  # beyond the light-cone window
        self.assert_matches_np_gradient(traj.u_frames, traj.r)
        assert np.array_equal(traj.ur_frames, np.gradient(traj.u_frames, traj.r, axis=1))

    def test_random_non_uniform_grid(self):
        rng = np.random.default_rng(1)
        r = np.sort(rng.uniform(0.2, 5.0, 60))
        self.assert_matches_np_gradient(rng.standard_normal((7, 60)), r)

    def test_exactly_uniform_grid_takes_numpys_uniform_formula(self):
        # spacing 3, not a power of two: the non-uniform weights -1/6, 0, 1/6
        # round differently from (f[j+1] - f[j-1]) / 6 in the last bit
        r = 1.0 + 3.0 * np.arange(40)
        assert np.all(np.diff(r) == 3.0)
        frames = np.random.default_rng(2).standard_normal((9, 40))
        self.assert_matches_np_gradient(frames, r)

    def test_sampled_u_r_is_the_bilinear_interpolant_of_np_gradient(self, short_run):
        rng = np.random.default_rng(4)
        times, r = short_run.times, short_run.r
        t = np.r_[times[0], times[-1], times[5], rng.uniform(times[0], times[-1], 300)]
        rr = np.r_[r[0], r[-1], r[7], rng.uniform(r[0], r[-1], 300)]
        _, _, u_r = solver.sample(short_run, t, rr)
        # the same interpolation applied to np.gradient's field through the u slot
        gradient_field = replace(short_run, u_frames=np.gradient(short_run.u_frames, r, axis=1))
        expected, _, _ = solver.sample(gradient_field, t, rr)
        assert np.array_equal(u_r, expected)

    def test_pushforward_holds_no_frame_stack(self):
        # tracemalloc sees numpy's buffers: np.gradient over all frames peaks at
        # about three frame stacks, reading the bilinear corners at a few percent
        traj = solver.run(short_config(dr=0.01, cfl=0.9, t_max=20.0, r_max=26.0))
        grid = solver.CylinderGrid(n_T=40, n_R=100)
        # imports happen outside the trace; the copy leaves nothing cached on traj
        solver.transform_to_cylinder(replace(traj), grid)
        tracemalloc.start()
        try:
            solver.transform_to_cylinder(traj, grid)
            pushforward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            traj.ur_frames
            ur_frames_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pushforward_peak < traj.u_frames.nbytes / 4
        assert ur_frames_peak < 1.25 * traj.u_frames.nbytes


class TestFrameMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
    def test_frame_stacks_take_memory_only_where_the_run_writes(self):
        # 100 001 nodes a row and 120 MB of stacks, of which the light-cone window
        # writes a few percent: measured 6.8 MB of growth (122.5 MB with np.zeros)
        def resident():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = resident()
        traj = solver.run(solver.SolverConfig(dr=0.01, t_max=4.0, r_max=1000.0))
        grown = resident() - before
        assert grown < 0.25 * (traj.u_frames.nbytes + traj.ut_frames.nbytes), grown


class TestMonitorBands:
    def test_bands_sample_u_at_t_minus_each_offset(self):
        # on the levels that carry both a frame and monitors, each band value is
        # np.interp of that level's u at r = t - offset, and 0 off the grid
        traj = solver.run(short_config(dr=0.01, t_max=4.0, r_max=10.0))
        m = traj.monitors
        framed, monitored = np.isin(traj.times, m.t), np.isin(m.t, traj.times)
        assert framed.sum() > 20 and np.array_equal(traj.times[framed], m.t[monitored])
        for b in solver.DEFAULT_BANDS:
            expected = [float(np.interp(t - b, traj.r, u)) if traj.r[0] <= t - b <= traj.r[-1]
                        else 0.0 for t, u in zip(traj.times[framed], traj.u_frames[framed])]
            assert np.array_equal(m.bands[b][monitored], expected)
        assert np.any(m.bands[1.0] != 0.0) and np.all(m.bands[16.0] == 0.0)


class TestCylinderTransform:
    def test_values_are_conformally_rescaled_samples(self, short_run):
        grid = solver.CylinderGrid(n_T=40, n_R=120)
        field = solver.transform_to_cylinder(short_run, grid)
        assert field.mask.any()
        rows, cols = np.nonzero(field.mask)
        k = np.random.default_rng(1).choice(len(rows), size=20, replace=False)
        i, j = rows[k], cols[k]
        t, r = geometry.minkowski_coords(field.T[i], field.R[j])
        u, _, _ = solver.sample(short_run, t, r)
        assert np.allclose(field.values[i, j], u / geometry.omega_minkowski(t, r),
                           rtol=1e-10, atol=1e-14)

    def test_default_top_row_is_found_in_closed_form(self, short_run, monkeypatch):
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("root finder called")

        monkeypatch.setattr(scipy.optimize, "brentq", refuse)
        grid = solver.CylinderGrid()
        field = solver.transform_to_cylinder(short_run, grid)
        # the top row's first off-pole node, 1e-9 later, lies at the last covered time
        t_top, _ = geometry.minkowski_coords(field.T[-1] + 1e-9, field.R[1])
        assert t_top == pytest.approx(short_run.times[-1] - solver._COVERAGE_MARGIN, rel=1e-12)

    def test_mask_respects_boundary_curve_and_diamond(self, short_run):
        grid = solver.CylinderGrid(n_T=40, n_R=120)
        field = solver.transform_to_cylinder(short_run, grid)
        obs = short_run.config.obs
        TT = field.T[:, None] + 0 * field.R[None, :]
        RR = 0 * field.T[:, None] + field.R[None, :]
        inside = field.mask
        assert np.all(TT[inside] + RR[inside] < math.pi)
        for i in range(len(field.T)):
            phi = geometry.boundary_curve(obs, float(field.T[i]))
            assert not np.any(inside[i] & (field.R < phi))


class TestOutputsRoundTrip:
    def test_write_and_load_round_trip(self, short_run, tmp_path):
        outdir = tmp_path / "run"
        files = solver.write_outputs(short_run, outdir, snapshot_every=2.0)
        assert any("monitors" in f for f in files)
        loaded = solver.load_trajectory(outdir)
        assert loaded.config.nonlinearity.name == short_run.config.nonlinearity.name
        # frames are snapshot-decimated on disk; monitors are stored in full
        for k, t_snap in enumerate(loaded.times):
            src = int(np.argmin(np.abs(short_run.times - t_snap)))
            assert np.allclose(loaded.u_frames[k], short_run.u_frames[src], atol=1e-12)
        m, back = short_run.monitors, loaded.monitors  # monitors.csv reads back bit for bit
        for column in ("t", "E_total", "E_local", "sup_u"):
            assert np.array_equal(getattr(back, column).view(np.int64),
                                  getattr(m, column).view(np.int64))
        for b in solver.DEFAULT_BANDS:
            assert np.array_equal(back.bands[b].view(np.int64), m.bands[b].view(np.int64))

    def test_store_records_the_run_config(self, tmp_path):
        # every setting a config file holds, none at its default
        config = short_config(obs=geometry.ObstacleSpec(0.15), nonlinearity=compat.Q0_RADIAL,
                              data=solver.DataSpec(center=1.2, width=0.2, f_amp=0.3, g_amp=0.8),
                              epsilon=0.02, dr=0.01, t_max=2.0, r_max=8.0)
        traj = solver.run(config)
        solver.write_outputs(traj, tmp_path)
        stored = solver.load_trajectory(tmp_path).config
        assert stored == traj.config
        rerun = solver.run(stored)
        assert np.array_equal(rerun.u_frames, traj.u_frames)
        assert np.array_equal(rerun.ut_frames, traj.ut_frames)

    def test_forced_run_is_not_stored(self, tmp_path):
        traj = solver.run(short_config(dr=0.01, t_max=1.0, r_max=8.0,
                                       forcing_fn=lambda t, r: 0.0 * r))
        with pytest.raises(ConfigError, match="forcing_fn"):
            solver.write_outputs(traj, tmp_path / "store")
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("every", [math.nan, -1.0, math.inf])
    def test_snapshot_spacing_that_would_change_the_store_is_rejected(self, short_run, tmp_path,
                                                                      every):
        # NaN kept 2 of the frames and -1 all of them, and neither said so
        with pytest.raises(ConfigError, match=r"^\[output\] snapshot_every must be finite"):
            solver.write_outputs(short_run, tmp_path / "store", snapshot_every=every)
        assert not (tmp_path / "store").exists()
        solver.write_outputs(short_run, tmp_path / "store", snapshot_every=0.0)
        assert np.array_equal(np.load(tmp_path / "store" / "times.npy"), short_run.times)

    def test_outputs_are_deterministic(self, short_run, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        solver.write_outputs(short_run, d1, snapshot_every=4.0)
        solver.write_outputs(short_run, d2, snapshot_every=4.0)
        for p1 in sorted(d1.iterdir()):
            p2 = d2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_store_holds_the_kept_frames_exactly(self, short_run, tmp_path):
        solver.write_outputs(short_run, tmp_path, snapshot_every=2.0)
        loaded = solver.load_trajectory(tmp_path)
        kept, next_t = [], 0.0  # every frame 2 time units or more after the last kept one
        for i, t in enumerate(short_run.times):
            if t >= next_t - 1e-9 or i == len(short_run.times) - 1:
                kept.append(i)
                next_t = t + 2.0
        assert 1 < len(kept) < len(short_run.times)
        assert np.array_equal(loaded.r, short_run.r)
        assert np.array_equal(loaded.times, short_run.times[kept])
        assert np.array_equal(loaded.u_frames, short_run.u_frames[kept])
        assert np.array_equal(loaded.ut_frames, short_run.ut_frames[kept])
        in_memory = solver.Trajectory(
            r=short_run.r, times=short_run.times[kept], u_frames=short_run.u_frames[kept],
            ut_frames=short_run.ut_frames[kept], monitors=short_run.monitors,
            config=short_run.config)
        assert analysis.decay_certificate(loaded) == analysis.decay_certificate(in_memory)

    SERIES = [
        [np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, -1e-310]),
         np.array([1.0, -1.0, 1e300, -1e-300, 0.1, 1 / 3, 2.0 ** -1074])],
        [np.array([-0.0]), np.array([np.nan]), np.array([4.9e-324])],  # one row
    ]

    @pytest.mark.parametrize("columns", SERIES)
    def test_series_csv_matches_savetxt_byte_for_byte(self, tmp_path, columns):
        header = ["a", "b", "c"][:len(columns)]
        solver.write_series_csv(tmp_path / "ours.csv", header, columns)
        np.savetxt(tmp_path / "savetxt.csv", np.column_stack(columns), fmt="%.17g",
                   delimiter=",", header=",".join(header), comments="")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    @pytest.mark.parametrize("columns", SERIES + [[
        np.random.default_rng(3).normal(size=1000) * 10.0 ** np.arange(-300, 300, 0.6),
        np.nextafter(np.linspace(0.0, 1.0, 1000), 2.0),
        np.random.default_rng(4).integers(1, 2 ** 52, 1000) * 2.0 ** -1074]])
    def test_series_csv_reads_back_bit_for_bit(self, tmp_path, columns):
        solver.write_series_csv(tmp_path / "s.csv", ["a", "b", "c"][:len(columns)], columns)
        back = np.loadtxt(tmp_path / "s.csv", delimiter=",", skiprows=1, ndmin=2)
        assert back.shape == (len(columns[0]), len(columns))
        assert np.array_equal(back.view(np.int64), np.column_stack(columns).view(np.int64))


class TestReferenceSamples:
    def test_levels_are_time_aligned(self):
        # linear evolution sampled at dt and 2*dt must agree at shared times
        f = compat.RadialProfile.from_callable(
            compat.gaussian_bump(1.5, 0.25, 0.0), 0.2, 6.0, 2e-3
        )
        g = compat.RadialProfile.from_callable(
            compat.gaussian_bump(1.5, 0.25, 1.0), 0.2, 6.0, 2e-3
        )
        coarse = solver.reference_samples(f, g, compat.ZERO, dt=1e-2, n_samples=3)
        fine = solver.reference_samples(f, g, compat.ZERO, dt=5e-3, n_samples=5)
        for k in range(3):
            err = np.max(np.abs(coarse[k] - fine[2 * k]))
            assert err < 1e-6, f"sample {k}: {err}"
