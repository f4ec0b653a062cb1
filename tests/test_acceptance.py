"""End-to-end acceptance battery.

Each test certifies one headline property of the toolkit at its stated
tolerance and prints a single pass line with the measured value.  The two
long evolutions (linear to t = 40, null-form to t = 80) are shared
session-scoped fixtures; their wall-clock cost is charged to the criteria
that consume them.
"""

import math
import os
import time

import numpy as np
import pytest

from penwave import analysis, compat, geometry, nullform, solver

FIXTURE_TIME: dict[str, float] = {}
# resident growth over the null run's solver.run, and its two frame stacks' nbytes
FIXTURE_RESIDENT: dict[str, int] = {}
HAS_STATM = os.path.exists("/proc/self/statm")


def _resident_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _passline(num, name, detail):
    print(f"[criterion {num:2d}] {name}: PASS  ({detail})")


def _certify(name, source=None, **params):
    """The report of the named check in the table that ``penwave verify`` runs;
    it must pass."""
    report = analysis.CHECKS[name].run(source, **params)
    assert report["verdict"] == "pass", report
    return report


@pytest.fixture(scope="session")
def linear_run():
    t0 = time.monotonic()
    traj = solver.run(solver.SolverConfig(t_max=40.0, r_max=46.0))
    FIXTURE_TIME["linear"] = time.monotonic() - t0
    return traj


@pytest.fixture(scope="session")
def null_run():
    t0, rss = time.monotonic(), _resident_bytes() if HAS_STATM else 0
    traj = solver.run(
        solver.SolverConfig(
            nonlinearity=compat.Q0_RADIAL, epsilon=0.01, dr=5e-3,
            t_max=80.0, r_max=86.0,
        )
    )
    FIXTURE_TIME["null"] = time.monotonic() - t0
    if HAS_STATM:
        FIXTURE_RESIDENT["grown"] = _resident_bytes() - rss
    FIXTURE_RESIDENT["stacks"] = traj.u_frames.nbytes + traj.ut_frames.nbytes
    return traj


def test_01_conformal_factor_closed_forms():
    t0 = time.monotonic()
    report = _certify("identity-omega")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(1, "conformal factor identity", f"max dev {report['value']:.2e} on 1e4 pts (threshold {report['threshold']:g}), {elapsed:.2f}s")


def test_02_intertwining_battery():
    t0 = time.monotonic()
    # second-order refinement: halving h divides the residual by ~4
    report = _certify("intertwining")
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passline(2, "operator intertwining", f"max rel err {report['value']:.2e}, h-ratios {report['h_ratio_min']:.2f}-{report['h_ratio_max']:.2f}, {elapsed:.1f}s")


def test_03_commutator_battery():
    t0 = time.monotonic()
    report = _certify("commutator")
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passline(3, "commutator identity", f"max residual {report['value']:.2e}, h-ratios {report['h_ratio_min']:.2f}-{report['h_ratio_max']:.2f}, {elapsed:.1f}s")


def test_04_null_classifier():
    t0 = time.monotonic()
    # exact acceptance of the basic null forms
    verdict, dec = nullform.check_null_semilinear(nullform.q0_spec(exact=True))
    assert verdict and dec.residual == 0.0
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        verdict, dec = nullform.check_null_semilinear(nullform.qij_spec(i, j, exact=True))
        assert verdict and dec.residual == 0.0

    # rejection with an order-one light-cone witness
    dt2 = np.zeros((1, 1, 1, 4, 4))
    dt2[0, 0, 0, 0, 0] = 1.0
    dt_d1 = np.zeros((1, 1, 1, 4, 4))
    dt_d1[0, 0, 0, 0, 1] = dt_d1[0, 0, 0, 1, 0] = 0.5
    for bad in (dt2, dt_d1):
        form = nullform.QuadraticFormSpec(s=bad)
        verdict, _ = nullform.check_null_semilinear(form)
        assert not verdict
        _, value = nullform.cone_witness(form)
        assert value >= 1.0

    # quasilinear null combinations: q(du, d d_m u) and d_j u box u
    diag = [1.0, -1.0, -1.0, -1.0]
    k_q0 = np.zeros((1, 1, 4, 4, 4))
    for a in range(4):
        k_q0[0, 0, a, a, 1] = diag[a]
    k_box = np.zeros((1, 1, 4, 4, 4))
    for a in range(4):
        k_box[0, 0, 2, a, a] = diag[a]
    k_qij = np.zeros((1, 1, 4, 4, 4))
    k_qij[0, 0, 1, 2, 0] = 1.0
    k_qij[0, 0, 2, 1, 0] = -1.0
    for k_arr in (k_q0, k_box, k_qij):
        verdict, _ = nullform.check_null_quasilinear(nullform.CubicFormSpec(k=k_arr))
        assert verdict

    # verdict equivalence against the independent cone-sampling oracle
    agreements = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        if seed % 2:
            s = np.zeros((1, 1, 1, 4, 4))
            a = rng.normal(size=(4, 4))
            s[0, 0, 0] = rng.normal() * np.diag(diag) + (a - a.T)
            form = nullform.QuadraticFormSpec(s=s)
        else:
            form = nullform.QuadraticFormSpec(s=rng.normal(size=(1, 1, 1, 4, 4)))
        verdict, _ = nullform.check_null_semilinear(form)
        oracle = nullform.cone_sample_oracle(form, 100, rng=np.random.default_rng(seed))
        assert verdict == (oracle < 1e-12), f"seed {seed}"
        agreements += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _passline(4, "null classifier", f"6 exact accepts, 2 witnessed rejects, 3 cubic accepts, {agreements}/50 oracle agreement, {elapsed:.1f}s")


def test_05_compatibility_jets():
    t0 = time.monotonic()
    r_b, dr = 0.2, 2e-3
    f = compat.RadialProfile.from_callable(
        compat.gaussian_bump(1.5, 0.25, 0.0), r_b, 6.0, dr
    )
    g = compat.RadialProfile.from_callable(
        compat.gaussian_bump(1.5, 0.25, 1.0), r_b, 6.0, dr
    )
    worst = 0.0
    for F in (compat.ZERO, compat.Q0_RADIAL):
        jet = compat.compute_jet(f, g, F, K=4)
        errs = compat.verify_jet(jet, f, g, F)
        for k in range(5):
            assert errs[k] < 1e-3, f"{F.name} order {k}: {errs[k]}"
            worst = max(worst, errs[k])

    # (r - r_b) data: boundary-vanishing holds at orders 0-1 but psi_2 does not vanish
    bump = compat.gaussian_bump(r_b, 0.5)
    f_lin = compat.RadialProfile.from_callable(
        lambda r: (r - r_b) * bump(r), r_b, 6.0, dr
    )
    g_zero = compat.RadialProfile(r0=r_b, dr=dr, values=np.zeros_like(f_lin.values))
    jet = compat.compute_jet(f_lin, g_zero, compat.ZERO, K=2)
    report = compat.check_compatibility(jet, geometry.ObstacleSpec(r_b), s=2)
    assert report.passed[0] and report.passed[1]
    assert not report.passed[2]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passline(5, "compatibility recursion", f"max rel L2 err {worst:.2e} (k<=4), (r-r_b) fixture fails at order 2, {elapsed:.1f}s")


def test_06_energy_conservation_and_inequality(linear_run):
    t0 = time.monotonic()
    m = linear_run.monitors
    drift = float(np.max(np.abs(m.E_total - m.E_total[0])) / m.E_total[0])
    assert drift < 1e-3
    field = solver.transform_to_cylinder(linear_run, solver.CylinderGrid())
    report = _certify("energy", field)
    elapsed = time.monotonic() - t0 + FIXTURE_TIME["linear"]
    assert elapsed < 300.0
    _passline(6, "energy conservation + inequality", f"drift {drift:.2e}, slack {report['value']:.4f} (threshold {report['threshold']:g}), headroom {report['headroom']:.4f}, {elapsed:.1f}s")


def test_07_local_energy_decay(linear_run):
    # In the "extinct" branch the local energy is extinguished to the round-off
    # floor long before the literal window opens (sharp Huygens propagation of
    # the radial exterior solution), which is stronger than any exponential rate.
    report = _certify("morawetz", linear_run)
    detail = (f"extinct by t={report['t_extinct']:.2f}; envelope"
              if report["branch"] == "extinct" else "literal window")
    _passline(7, "local energy decay", f"{detail} rate {report['value']:.3f}, R^2 {report['r_squared']:.3f}")


def test_08_global_decay_certificate(null_run):
    t0 = time.monotonic()
    assert null_run.completed  # the evolution finished without a blow-up
    m = null_run.monitors
    fit = analysis.fit_power(
        analysis.Series(m.t[1:], np.maximum(m.sup_u[1:], 1e-300)),
        window=(10.0, 80.0),
    )
    assert -1.15 <= fit.exponent <= -0.85, fit.exponent
    report = _certify("decay", null_run, sigma=0.25, tail_from=20.0)
    elapsed = time.monotonic() - t0 + FIXTURE_TIME["null"]
    assert elapsed < 600.0
    _passline(8, "global decay certificate", f"sup exponent {fit.exponent:.3f}, C_sup {report['C_sup']:.3e}, plateau {report['value']:.3f}, {elapsed:.1f}s")


def test_09_weighted_norm_boundedness(null_run):
    t0 = time.monotonic()
    field = solver.transform_to_cylinder(
        null_run, solver.CylinderGrid(T_max=math.pi - 0.049)
    )
    report = _certify("weighted-norms", field, sigma=0.25)
    assert report["last_row_T"] >= math.pi - 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _passline(9, "weighted-norm boundedness", f"m plateau {report['value']:.3f} over T<= {report['last_row_T']:.4f}, {elapsed:.1f}s")


def test_10_boundary_geometry():
    t0 = time.monotonic()
    # a fixed two-sided band for the quadratic collapse, a negative slope with a
    # positive bound, and the closed-form slope against central differences
    report = _certify("boundary-geometry")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _passline(10, "boundary geometry", f"collapse band ratio {report['value']:.2f} (threshold {report['threshold']:g}), slope bound c={report['slope_bound']:.4f}, FD rel err {report['fd_rel_err']:.1e}, {elapsed:.1f}s")


def test_11_vanishing_orders_at_the_tip():
    t0 = time.monotonic()
    report = _certify("vanishing-order")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _passline(11, "tip vanishing orders", f"frame slope {report['frame_slope']:.4f}, a-block slope {report['a_block_slope']:.4f} (threshold {report['threshold']:g}), {elapsed:.1f}s")


@pytest.mark.skipif(not HAS_STATM, reason="needs /proc/self/statm")
def test_12_memory_bound_of_the_t80_run(null_run):
    # the windowed run writes about half of its frame stacks' nodes, and only written
    # pages are resident: it grew by 0.56 of the stacks' 444 MB (1.01 with np.zeros)
    ratio = FIXTURE_RESIDENT["grown"] / FIXTURE_RESIDENT["stacks"]
    assert ratio <= 0.65, ratio
    _passline(12, "t = 80 memory bound", f"resident growth {FIXTURE_RESIDENT['grown'] / 1e6:.0f} MB, {ratio:.2f} of the frame stacks' {FIXTURE_RESIDENT['stacks'] / 1e6:.0f} MB (bound 0.65)")
