"""Fits, decay certificates, energy inequality, and weighted-norm reports."""

import json
import math

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
        fit = analysis.fit_power(analysis.Series(t, y))
        assert fit.exponent == pytest.approx(p, abs=0.05)
        assert fit.r_squared > 0.9

    @given(rate=st.floats(0.05, 1.0), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_exponential_fit_recovers_rate(self, rate, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 20.0, 200)
        y = 3.0 * np.exp(-rate * t) * (1.0 + 0.01 * rng.uniform(-1, 1, t.shape))
        fit = analysis.fit_exponential(analysis.Series(t, y))
        assert fit.rate == pytest.approx(rate, rel=0.05)
        assert fit.r_squared > 0.95

    def test_default_window_skips_the_transient(self):
        # heavy early-time transient on top of a clean power law
        t = np.linspace(1.0, 100.0, 500)
        y = t**-1.0 + 10.0 * np.exp(-3.0 * t)
        fit = analysis.fit_power(analysis.Series(t, y))
        assert fit.exponent == pytest.approx(-1.0, abs=0.01)

    def test_explicit_window_respected(self):
        t = np.linspace(1.0, 10.0, 100)
        fit = analysis.fit_power(analysis.Series(t, t**-2.0), window=(2.0, 8.0))
        assert fit.window == (2.0, 8.0)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-10)

    def test_sparse_window_rejected(self):
        t = np.linspace(1.0, 10.0, 100)
        with pytest.raises(FitError):
            analysis.fit_power(analysis.Series(t, t**-1.0), window=(9.7, 10.0))

    def test_zero_ordinates_rejected(self):
        t = np.linspace(1.0, 10.0, 100)
        y = np.zeros(100)
        with pytest.raises(FitError):
            analysis.fit_power(analysis.Series(t, y))


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
        assert cert.C_sup > 0
        assert all(v <= cert.C_sup + 1e-12 for v in cert.band_table.values())
        assert set(cert.band_table) == {0.0, 1.0, 2.0, 4.0, 8.0, 16.0}

    def test_sigma_monotonicity(self, small_traj):
        # larger sigma weakens the weight, so the certificate constant shrinks
        c_weak = analysis.decay_certificate(small_traj, sigma=0.9).C_sup
        c_strong = analysis.decay_certificate(small_traj, sigma=0.1).C_sup
        assert c_weak <= c_strong

    def test_wave_zone_band_dominates_far_bands(self, small_traj):
        cert = analysis.decay_certificate(small_traj, sigma=0.25)
        # the solution lives near the light cone: far bands see only tails
        assert cert.band_table[16.0] < cert.band_table[0.0]

    def test_invalid_sigma(self, small_traj):
        with pytest.raises(DomainError):
            analysis.decay_certificate(small_traj, sigma=0.0)
        with pytest.raises(DomainError):
            analysis.decay_certificate(small_traj, sigma=1.5)

    def test_tail_from_controls_the_window(self, small_traj):
        cert = analysis.decay_certificate(small_traj, sigma=0.25, tail_from=10.0)
        assert cert.window[0] == 10.0


def flat_field(fn, n_T=60, n_R=200, T_max=2.5, R_max=3.0, forcing=None):
    T = np.linspace(0.0, T_max, n_T)
    R = np.linspace(1e-3, R_max, n_R)
    TT, RR = np.meshgrid(T, R, indexing="ij")
    vals = np.vectorize(fn)(TT, RR)
    mask = np.ones_like(vals, dtype=bool)
    fc = None if forcing is None else np.vectorize(forcing)(TT, RR)
    return cylinder.CylinderField(T=T, R=R, values=vals, mask=mask, forcing=fc)


def gapped_field():
    """A field masked by an obstacle, a band gap and the diamond edge, with
    one interior row cut to three valid nodes."""
    field = flat_field(lambda T, R: math.sin(R) * math.cos(T) + 0.3 * R, T_max=3.0)
    TT, RR = np.meshgrid(field.T, field.R, indexing="ij")
    mask = (RR > 0.15) & (TT + RR < math.pi) & ~((RR > 1.0) & (RR < 1.1) & (TT < 1.5))
    mask[20] &= np.cumsum(mask[20]) <= 3
    values = np.where(mask, field.values, np.nan)
    return cylinder.CylinderField(T=field.T, R=field.R, values=values, mask=mask)


class TestEnergyInequality:
    def test_static_field_has_zero_slack(self):
        field = flat_field(lambda T, R: math.sin(R))
        report = analysis.energy_inequality_check(field)
        assert report.passed
        assert report.slack <= 0.0 + 1e-12

    def test_scale_invariance(self):
        field = flat_field(lambda T, R: math.sin(R) * math.exp(-0.2 * T))
        base = analysis.energy_inequality_check(field)
        scaled = cylinder.CylinderField(
            T=field.T, R=field.R, values=100.0 * field.values, mask=field.mask
        )
        report = analysis.energy_inequality_check(scaled)
        assert report.slack == pytest.approx(base.slack, abs=1e-9)

    def test_unforced_growth_is_flagged(self):
        field = flat_field(lambda T, R: math.sin(R) * math.exp(0.5 * T))
        report = analysis.energy_inequality_check(field)
        assert not report.passed
        assert report.slack > 0.1

    def test_forcing_raises_the_budget(self):
        growing = lambda T, R: math.sin(R) * (1.0 + 0.05 * T)
        bare = analysis.energy_inequality_check(flat_field(growing))
        fed = analysis.energy_inequality_check(
            flat_field(growing, forcing=lambda T, R: 10.0 * math.sin(R))
        )
        assert fed.slack < bare.slack

    def test_headroom_reports_the_margin(self):
        decaying = analysis.energy_inequality_check(
            flat_field(lambda T, R: math.sin(R) * math.exp(-0.2 * T)))
        growing = analysis.energy_inequality_check(
            flat_field(lambda T, R: math.sin(R) * math.exp(0.5 * T)))
        assert decaying.slack == 0.0 < decaying.headroom
        assert growing.headroom < 0.0

    def test_lhs_matches_the_single_row_norms(self):
        field = gapped_field()
        report = analysis.energy_inequality_check(field)
        dv_T, dv_R = cylinder.grad_fields(field)
        rows = [i for i in range(len(field.T)) if field.mask[i].any()]
        expected = [
            math.sqrt(cylinder.slice_L2(field.values[i], field.R, field.mask[i]) ** 2
                      + cylinder.slice_L2(dv_T.values[i], field.R, dv_T.mask[i]) ** 2
                      + cylinder.slice_L2(dv_R.values[i], field.R, dv_R.mask[i]) ** 2)
            for i in rows
        ]
        np.testing.assert_allclose(report.lhs, expected, rtol=1e-13, atol=0.0)

    def test_empty_field_rejected(self):
        field = flat_field(lambda T, R: 1.0, n_T=8, n_R=8)
        empty = cylinder.CylinderField(
            T=field.T, R=field.R, values=field.values,
            mask=np.zeros_like(field.mask),
        )
        with pytest.raises(DomainError):
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
        report = analysis.weighted_norm_report(field, p=2, plateau_tol=4.0)
        assert not report.bounded
        assert report.plateau_ratio > 4.0

    def test_order_cap(self):
        field = flat_field(lambda T, R: math.sin(R))
        with pytest.raises(DomainError):
            analysis.weighted_norm_report(field, p=4)

    def test_rows_match_the_single_row_norms(self):
        field = gapped_field()
        report = analysis.weighted_norm_report(field, p=2, sigma=0.25)
        rows = [i for i in range(len(field.T)) if field.mask[i].sum() >= 4]
        assert 20 not in rows and field.mask[20].sum() == 3
        expected = []
        for i in rows:
            norms = cylinder.weighted_norms(
                field, cylinder.WeightedDerivativeSpec(order=2), field.T[i])
            total = 0.0
            for order, (l2, l6, sup) in norms.items():
                total += l2 + l6
                if order <= 1:
                    total += (math.pi - field.T[i]) ** 0.25 * sup
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

    def test_digest_depends_on_inputs(self):
        a = analysis.structured_report("x", "a", {"s": 1}, 0.0, 1.0, True)
        b = analysis.structured_report("x", "a", {"s": 2}, 0.0, 1.0, True)
        assert a["inputs_digest"] != b["inputs_digest"]

    def test_series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        analysis.write_series_csv(path, ["t", "y"], [np.arange(3.0), np.ones(3)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,y"
        assert len(lines) == 4
