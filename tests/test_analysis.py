"""Fits, decay certificates, energy inequality, and weighted-norm reports."""

import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penwave import analysis, cylinder, solver
from penwave.errors import DomainError, FitError


class TestSeries:
    def test_validation(self):
        with pytest.raises(DomainError):
            analysis.Series(t=[0.0, 1.0, 1.0], y=[1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            analysis.Series(t=[0.0, 1.0], y=[1.0, -1.0])
        with pytest.raises(DomainError):
            analysis.Series(t=[0.0, 1.0], y=[1.0, np.nan])

    def test_a_nan_abscissa_is_rejected(self):
        # a NaN compares False either way: only (np.diff(t) > 0).all() rejects it
        with pytest.raises(DomainError, match="^series abscissae t must be strictly increasing"):
            analysis.Series(t=[0.0, np.nan, 2.0], y=[1.0, 1.0, 1.0])

    def test_window(self):
        s = analysis.Series(t=np.arange(10.0), y=np.ones(10))
        sub = s.window(2.5, 6.5)
        assert list(sub.t) == [3.0, 4.0, 5.0, 6.0]


class TestFits:
    @given(
        p=st.floats(-3.0, -0.2),
        c=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_power_fit_recovers_exponent_under_noise(self, p, c, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(1.0, 100.0, 300)
        y = c * t**p * (1.0 + 0.01 * rng.uniform(-1, 1, t.shape))
        fit = analysis.fit_power(analysis.Series(t, y), window=(10.0, 100.0))
        assert fit.exponent == pytest.approx(p, abs=0.05)
        assert fit.r_squared > 0.9

    @given(rate=st.floats(0.05, 1.0), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_exponential_fit_recovers_rate(self, rate, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 20.0, 200)
        y = 3.0 * np.exp(-rate * t) * (1.0 + 0.01 * rng.uniform(-1, 1, t.shape))
        fit = analysis.fit_exponential(analysis.Series(t, y), window=(10.0, 20.0))
        assert fit.exponent == pytest.approx(rate, rel=0.05)
        assert fit.r_squared > 0.95

    def test_window_skips_the_transient(self):
        # heavy early-time transient on top of a clean power law
        t = np.linspace(1.0, 100.0, 500)
        y = t**-1.0 + 10.0 * np.exp(-3.0 * t)
        fit = analysis.fit_power(analysis.Series(t, y), window=(10.0, 100.0))
        assert fit.exponent == pytest.approx(-1.0, abs=0.01)

    def test_explicit_window_respected(self):
        t = np.linspace(1.0, 10.0, 100)
        fit = analysis.fit_power(analysis.Series(t, t**-2.0), window=(2.0, 8.0))
        assert fit.exponent == pytest.approx(-2.0, abs=1e-10)

    def test_sparse_window_rejected(self):
        t = np.linspace(1.0, 10.0, 100)
        with pytest.raises(FitError):
            analysis.fit_power(analysis.Series(t, t**-1.0), window=(9.7, 10.0))

    def test_zero_ordinates_rejected(self):
        t = np.linspace(1.0, 10.0, 100)
        y = np.zeros(100)
        with pytest.raises(FitError):
            analysis.fit_power(analysis.Series(t, y), window=(1.0, 10.0))


@pytest.fixture(scope="module")
def small_traj():
    return solver.run(
        solver.SolverConfig(
            data=solver.DataSpec(), dr=1e-2, t_max=12.0, r_max=18.0
        )
    )


class TestDecayCertificate:
    def test_certificate_structure(self, small_traj):
        cert = analysis.decay_certificate(small_traj, sigma=0.25)
        assert cert.C_sup > 0 and cert.plateau_ratio >= 1.0
        assert cert.window == (0.5 * (small_traj.times[0] + small_traj.times[-1]),
                               small_traj.times[-1])

    def test_sigma_monotonicity(self, small_traj):
        # larger sigma weakens the weight, so the certificate constant shrinks
        c_weak = analysis.decay_certificate(small_traj, sigma=0.9).C_sup
        c_strong = analysis.decay_certificate(small_traj, sigma=0.1).C_sup
        assert c_weak <= c_strong

    def test_invalid_sigma(self, small_traj):
        with pytest.raises(DomainError):
            analysis.decay_certificate(small_traj, sigma=0.0)
        with pytest.raises(DomainError):
            analysis.decay_certificate(small_traj, sigma=1.5)

    def test_tail_from_controls_the_window(self, small_traj):
        cert = analysis.decay_certificate(small_traj, sigma=0.25, tail_from=10.0)
        assert cert.window[0] == 10.0

    @pytest.mark.parametrize("tail_from", [1e3, np.inf, np.nan])
    def test_tail_window_without_a_frame_is_rejected(self, small_traj, tail_from):
        # numpy's zero-size reduction used to escape as a ValueError
        with pytest.raises(DomainError, match=rf"^tail_from = {tail_from} leaves no frame"):
            analysis.decay_certificate(small_traj, tail_from=tail_from)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_frame_is_rejected_naming_its_time(self, small_traj, value):
        u = small_traj.u_frames.copy()
        u[7, 123] = value
        bad = dataclasses.replace(small_traj, u_frames=u)
        with pytest.raises(DomainError, match=re.escape(f"frame at t={small_traj.times[7]}")):
            analysis.decay_certificate(bad)


def reference_decay_certificate(traj, sigma, tail_from):
    """C_sup, the plateau ratio and the tail window as one broadcast over all frames."""
    t = traj.times[:, None]
    weighted = np.abs(traj.u_frames) * ((1.0 + t) * (1.0 + np.abs(t - traj.r)) ** (1.0 - sigma))
    frame_sup = weighted.max(axis=1)
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    lo = 0.5 * (t0 + t1) if tail_from is None else float(tail_from)
    tail = frame_sup[traj.times >= lo]
    plateau = float(tail.max() / tail.min()) if tail.min() > 0 else math.inf
    return float(frame_sup.max()), plateau, (lo, t1)


def assert_equals_reference(traj, sigma=0.25, tail_from=None):
    cert = analysis.decay_certificate(traj, sigma=sigma, tail_from=tail_from)
    c_sup, plateau, window = reference_decay_certificate(traj, sigma, tail_from)
    assert cert.C_sup == c_sup
    assert cert.plateau_ratio == plateau
    assert cert.window == window


def frames_on(traj, r, times, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((len(times), len(r))) * rng.uniform(0.0, 2.0, (len(times), 1))
    return dataclasses.replace(traj, r=np.asarray(r, float), times=np.asarray(times, float),
                               u_frames=u, ut_frames=u)


class TestDecayCertificateEqualsTheFullSweep:
    """C_sup, the plateau ratio and the window equal a sweep of every node of every frame,
    bit for bit."""

    def test_solver_run(self, small_traj):
        assert_equals_reference(small_traj)
        assert_equals_reference(small_traj, sigma=0.9, tail_from=3.0)

    @pytest.mark.parametrize("dec", [1, 2, 5, 13])
    @pytest.mark.parametrize("sigma", [0.01, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("tail_from", [None, 3.0])
    def test_random_frames_on_decimated_grids(self, small_traj, dec, sigma, tail_from):
        r = small_traj.r[::dec]
        times = np.sort(np.random.default_rng(dec).uniform(0.0, 30.0, 150))
        assert_equals_reference(frames_on(small_traj, r, times, seed=dec), sigma, tail_from)

    @pytest.mark.parametrize("step,r0,dt", [(0.25, 0.25, 0.125), (0.125, 0.375, 0.125),
                                            (0.1, 0.2, 0.1), (0.01, 0.2, 0.05)])
    def test_regular_grids_and_frame_pairs(self, small_traj, step, r0, dt):
        r = r0 + step * np.arange(int(30.0 / step))
        times = dt * np.arange(200)
        assert_equals_reference(frames_on(small_traj, r, times))
        # two frames at a time, peaked at opposite ends of the grid
        ends = np.stack([np.exp(-r), np.exp(r - r[-1])])
        for u in (ends, ends[::-1]):
            for t in times[::3]:
                assert_equals_reference(dataclasses.replace(
                    small_traj, r=r, times=np.array([t, t + dt]), u_frames=u, ut_frames=u))

    def test_sup_read_from_one_node_of_an_irregular_grid(self, small_traj):
        t = 9.224172938446443
        lo = t - 8.5
        past = np.nextafter(lo + 1.0, np.inf)
        r = np.concatenate([[lo - 0.6, lo, lo + 0.5], past + 0.6 * np.arange(40)])
        u = np.stack([np.zeros_like(r), np.where(r == past, 1.0, 1e-3)])  # a zero frame first
        traj = dataclasses.replace(small_traj, r=r, times=np.array([t - 1.0, t]), u_frames=u,
                                   ut_frames=u)
        assert_equals_reference(traj)
        weight = (1.0 + t) * (1.0 + np.abs(t - r)) ** 0.75
        assert analysis.decay_certificate(traj).C_sup == weight[r == past][0]  # u = 1 there

    def test_short_grid(self, small_traj):
        traj = frames_on(small_traj, 0.2 + 0.01 * np.arange(50), np.linspace(0.0, 2.0, 70))
        assert_equals_reference(traj)

    def test_two_frames_of_three_nodes(self, small_traj):
        assert_equals_reference(frames_on(small_traj, [0.2, 0.21, 0.22], [0.0, 0.5]))
        assert_equals_reference(frames_on(small_traj, [0.2, 0.7, 5.0], [1.0, 2.0]))


def flat_field(fn, n_T=60, n_R=200, T_max=2.5, R_max=3.0, forcing=None, d_T=None, d_R=None):
    """The field of ``fn`` on an unmasked grid, with the forcing and the first derivatives
    of the callables given."""
    T = np.linspace(0.0, T_max, n_T)
    R = np.linspace(1e-3, R_max, n_R)
    TT, RR = np.meshgrid(T, R, indexing="ij")
    on_grid = lambda g: None if g is None else np.vectorize(g, otypes=[float])(TT, RR)
    return cylinder.CylinderField(T=T, R=R, values=on_grid(fn), mask=np.ones(TT.shape, bool),
                                  forcing=on_grid(forcing), d_T=on_grid(d_T), d_R=on_grid(d_R))


def energy_field(a, b, forcing=None):
    """v = sin R exp(a T) + b T sin R with its closed-form d_T and d_R."""
    return flat_field(lambda T, R: math.sin(R) * (math.exp(a * T) + b * T), forcing=forcing,
                      d_T=lambda T, R: math.sin(R) * (a * math.exp(a * T) + b),
                      d_R=lambda T, R: math.cos(R) * (math.exp(a * T) + b * T))


def gapped_field():
    """A field masked by an obstacle, a band gap and the diamond edge, with
    one interior row cut to three valid nodes, and its closed-form derivatives."""
    field = flat_field(lambda T, R: math.sin(R) * math.cos(T) + 0.3 * R, T_max=3.0,
                       d_T=lambda T, R: -math.sin(R) * math.sin(T),
                       d_R=lambda T, R: math.cos(R) * math.cos(T) + 0.3)
    TT, RR = np.meshgrid(field.T, field.R, indexing="ij")
    mask = (RR > 0.15) & (TT + RR < math.pi) & ~((RR > 1.0) & (RR < 1.1) & (TT < 1.5))
    mask[20] &= np.cumsum(mask[20]) <= 3
    values, d_T, d_R = (np.where(mask, a, np.nan) for a in (field.values, field.d_T, field.d_R))
    return cylinder.CylinderField(T=field.T, R=field.R, values=values, mask=mask,
                                  d_T=d_T, d_R=d_R)


class TestEnergyInequality:
    def test_static_field_has_zero_slack(self):
        report = analysis.energy_inequality_check(energy_field(0.0, 0.0))
        assert report.passed
        assert report.slack <= 0.0 + 1e-12

    def test_scale_invariance(self):
        field = energy_field(-0.2, 0.0)
        base = analysis.energy_inequality_check(field)
        scaled = cylinder.CylinderField(
            T=field.T, R=field.R, values=100.0 * field.values, mask=field.mask,
            d_T=100.0 * field.d_T, d_R=100.0 * field.d_R,
        )
        report = analysis.energy_inequality_check(scaled)
        assert report.slack == pytest.approx(base.slack, abs=1e-9)

    def test_unforced_growth_is_flagged(self):
        report = analysis.energy_inequality_check(energy_field(0.5, 0.0))
        assert not report.passed
        assert report.slack > 0.1

    def test_forcing_raises_the_budget(self):
        bare = analysis.energy_inequality_check(energy_field(0.0, 0.05))
        fed = analysis.energy_inequality_check(
            energy_field(0.0, 0.05, forcing=lambda T, R: 10.0 * math.sin(R))
        )
        assert fed.slack < bare.slack

    def test_headroom_reports_the_margin(self):
        decaying = analysis.energy_inequality_check(energy_field(-0.2, 0.0))
        growing = analysis.energy_inequality_check(energy_field(0.5, 0.0))
        assert decaying.slack == 0.0 < decaying.headroom
        assert growing.headroom < 0.0

    def test_lhs_matches_the_single_row_norms(self):
        field = gapped_field()
        report = analysis.energy_inequality_check(field)
        rows = [i for i in range(len(field.T)) if field.mask[i].any()]
        expected = [
            math.sqrt(sum(cylinder.rows_Lp(a[i], field.R, field.mask[i], 2.0) ** 2
                          for a in (field.values, field.d_T, field.d_R)))
            for i in rows
        ]
        np.testing.assert_allclose(report.lhs, expected, rtol=1e-13, atol=0.0)

    def test_a_field_without_stored_derivatives_is_rejected(self):
        # the check used to difference such a field on the grid; the pushforward stores both
        field = energy_field(0.0, 0.0)
        with pytest.raises(DomainError, match="d_T and d_R"):
            analysis.energy_inequality_check(field.with_values(field.values, field.mask))

    def test_empty_field_rejected(self):
        field = energy_field(0.0, 0.0)
        empty = dataclasses.replace(field, mask=np.zeros_like(field.mask))
        with pytest.raises(DomainError, match="no covered rows"):
            analysis.energy_inequality_check(empty)


class TestWeightedNormReport:
    def test_static_profile_is_bounded(self):
        # the (pi - T)^2 derivative weights make m decay even for a static
        # profile, so the growth ratio sits at or below 1
        field = flat_field(lambda T, R: math.sin(R), T_max=3.0)
        report = analysis.weighted_norm_report(field, p=2)
        assert report.bounded
        assert 0.0 < report.plateau_ratio <= 1.0

    def test_decaying_tail_is_bounded(self):
        field = flat_field(lambda T, R: math.sin(R) * math.exp(-2.0 * T), T_max=3.0)
        report = analysis.weighted_norm_report(field, p=2)
        assert report.bounded
        assert report.plateau_ratio < 1.0

    def test_blow_up_is_flagged(self):
        # T_max stays away from pi so the envelope weights cannot mask the
        # exponential growth of the field itself
        field = flat_field(lambda T, R: math.sin(R) * math.exp(6.0 * T), T_max=2.0)
        report = analysis.weighted_norm_report(field, p=2)
        assert not report.bounded
        assert report.plateau_ratio > analysis.CHECKS["weighted-norms"].threshold

    def test_order_cap(self):
        field = flat_field(lambda T, R: math.sin(R))
        with pytest.raises(DomainError):
            analysis.weighted_norm_report(field, p=4)

    @pytest.mark.parametrize("sigma", [7.0, -1.0, math.nan])
    def test_sigma_outside_unit_interval_rejected(self, sigma):
        field = flat_field(lambda T, R: math.sin(R))
        with pytest.raises(DomainError, match=r"sigma must lie in \(0, 1\]"):
            analysis.weighted_norm_report(field, p=2, sigma=sigma)

    def test_no_row_with_four_valid_nodes_rejected(self):
        field = flat_field(lambda T, R: math.sin(R), n_T=10, n_R=20)
        mask = np.zeros_like(field.mask)
        mask[:, 5:8] = True
        sparse = cylinder.CylinderField(T=field.T, R=field.R, values=field.values, mask=mask)
        with pytest.raises(DomainError, match="4 valid nodes"):
            analysis.weighted_norm_report(sparse, p=2)

    def test_rows_match_the_single_row_norms(self):
        field = gapped_field()
        report = analysis.weighted_norm_report(field, p=2, sigma=0.25)
        rows = [i for i in range(len(field.T)) if field.mask[i].sum() >= 4]
        assert 20 not in rows and field.mask[20].sum() == 3
        expected = []
        for i in rows:
            norms = cylinder.weighted_row_norms(field, 2, np.array([i]))
            total = 0.0
            for order, (l2, l6, sup) in norms.items():
                total += l2[0] + l6[0]
                if order <= 1:
                    total += (math.pi - field.T[i]) ** 0.25 * sup[0]
            expected.append(total)
        np.testing.assert_array_equal(report.T, field.T[rows])
        np.testing.assert_allclose(report.m, expected, rtol=1e-13, atol=0.0)


class TestVanishingOrderFit:
    def test_recovers_quadratic_order(self):
        eps = math.pi * 2.0 ** -np.arange(3, 13)
        samples = [(e, 3.0 * e**2) for e in eps]
        fit = analysis.vanishing_order_fit(samples)
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            analysis.vanishing_order_fit([(0.1, 0.01)] * 5)

    def test_underflow_guard(self):
        eps = math.pi * 2.0 ** -np.arange(3, 13)
        samples = [(e, 1e-300) for e in eps]
        with pytest.raises(FitError):
            analysis.vanishing_order_fit(samples)

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_a_fit_error_naming_it(self, slot, bad, capfd):
        # rejected before the fit: a NaN value fits exponent nan, and a NaN distance makes
        # LAPACK print DLASCL lines to stderr and raise LinAlgError
        eps = math.pi * 2.0 ** -np.arange(3, 13)
        samples = [(e, 3.0 * e**2) for e in eps]
        samples[4] = (bad, samples[4][1]) if slot == 0 else (samples[4][0], bad)
        with pytest.raises(FitError, match=r"^sample 4 \(dist, value\) = "):
            analysis.vanishing_order_fit(samples)
        assert capfd.readouterr().err == ""

    def test_a_nan_residual_has_no_r_squared_of_one(self):
        x = np.arange(10.0)
        y = np.r_[x[:9], np.nan]
        assert math.isnan(analysis._r_squared(x, y, 1.0, 0.0))
        assert math.isnan(analysis._r_squared(x, np.full(10, np.nan), 1.0, 0.0))
        assert analysis._r_squared(x, x, 1.0, 0.0) == 1.0


class TestReports:
    def test_structured_report_round_trip(self, tmp_path):
        rep = analysis.structured_report(
            "decay-sup", "pointwise decay", {"sigma": 0.25}, 0.9, 1.0, True
        )
        path = tmp_path / "report.json"
        analysis.write_report(rep, path)
        loaded = json.loads(path.read_text())
        assert loaded["verdict"] == "pass"
        assert loaded["value"] == 0.9
        assert len(loaded["inputs_digest"]) == 16

    def test_margin_is_the_threshold_minus_the_value(self):
        assert analysis.structured_report("x", "a", 0, 0.9, 1.0, True)["margin"] == \
            pytest.approx(0.1)
        assert analysis.structured_report("x", "a", 0, 1.5, 1.0, False)["margin"] == \
            pytest.approx(-0.5)

    def test_digest_depends_on_inputs(self):
        a = analysis.structured_report("x", "a", {"s": 1}, 0.0, 1.0, True)
        b = analysis.structured_report("x", "a", {"s": 2}, 0.0, 1.0, True)
        assert a["inputs_digest"] != b["inputs_digest"]

    def test_series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        solver.write_series_csv(path, ["t", "y"], [np.arange(3.0), np.ones(3)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,y"
        assert len(lines) == 4


class TestCheckTable:
    def test_readme_lists_every_check_with_its_threshold(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `([a-z-]+)` \| (\w+) \| [^|]* \| `value (<=|<|>=|>) ([^`]+)` \|",
                          readme.read_text(), flags=re.M)
        assert len(rows) == len(analysis.CHECKS)
        documented = {name: (reads, direction, float(threshold))
                      for name, reads, direction, threshold in rows}
        assert documented == {name: (check.reads, check.direction, check.threshold)
                              for name, check in analysis.CHECKS.items()}

    def test_morawetz_literal_branch_passes_an_exponential_decay(self, small_traj):
        t = np.linspace(0.0, 40.0, 2001)
        monitors = solver.MonitorSeries(t=t, E_total=np.ones_like(t), E_local=np.exp(-0.5 * t),
                                        sup_u=np.ones_like(t))
        report = analysis.CHECKS["morawetz"].run(dataclasses.replace(small_traj,
                                                                    monitors=monitors))
        assert report["branch"] == "literal" and report["verdict"] == "pass"
        assert report["value"] == pytest.approx(0.5) and report["r_squared"] == pytest.approx(1.0)

    @pytest.mark.parametrize("late,verdict", [(0.0, "pass"), (1e-3, "fail")])
    def test_morawetz_extinct_branch_needs_the_collapse_before_the_window(self, small_traj,
                                                                          late, verdict):
        # below 1e-20 of E_total from t = 4.61 on; ``late`` returns after the window
        t = np.linspace(0.0, 40.0, 2001)
        E_local = np.where(t <= 30.0, np.exp(-10.0 * t), late)
        monitors = solver.MonitorSeries(t=t, E_total=np.ones_like(t), E_local=E_local,
                                        sup_u=np.ones_like(t))
        report = analysis.CHECKS["morawetz"].run(dataclasses.replace(small_traj,
                                                                    monitors=monitors))
        assert report["branch"] == "extinct" and report["verdict"] == verdict
        if verdict == "pass":
            assert report["t_extinct"] < 5.0 and report["value"] == pytest.approx(10.0)
        else:
            assert report["t_extinct"] == 40.0

    @pytest.mark.parametrize("direction,value,side_ok,margin,verdict", [
        ("<", 0.5, True, 0.5, "pass"),
        ("<", 1.0, True, 0.0, "fail"),  # on a strict bound: no margin left, and it fails
        ("<", 0.5, False, 0.5, "fail"),  # a failed side condition leaves the margin as it is
        ("<=", 1.0, True, 0.0, "pass"),
        (">", 1.5, True, 0.5, "pass"),
        (">=", 0.5, True, -0.5, "fail"),
    ])
    def test_margin_is_positive_on_the_passing_side_of_the_threshold(
            self, direction, value, side_ok, margin, verdict):
        check = analysis.Check("x", "a", "nothing", 1.0, direction,
                               lambda _: (0, value, side_ok, {}))
        report = check.run()
        assert report["margin"] == margin and report["verdict"] == verdict
        assert math.copysign(1.0, report["margin"]) == math.copysign(1.0, margin)

    def test_thresholds_are_the_ones_the_reports_apply(self):
        field = flat_field(lambda T, R: math.sin(R) * math.exp(6.0 * T), T_max=2.0)
        report = analysis.CHECKS["weighted-norms"].run(field)
        assert report["verdict"] == "fail"
        assert report["value"] == analysis.weighted_norm_report(field).plateau_ratio
        assert report["margin"] == pytest.approx(report["threshold"] - report["value"])
