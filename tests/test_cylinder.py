"""Cylinder operators, identity batteries, quadrature, and weighted norms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penwave import cylinder, geometry
from penwave.errors import DomainError, MaskError


def make_field(fn, n_T=101, n_R=201, T_max=2.0, R_max=3.0):
    T = np.linspace(0.0, T_max, n_T)
    R = np.linspace(0.0, R_max, n_R)
    TT, RR = np.meshgrid(T, R, indexing="ij")
    vals = np.vectorize(fn)(TT, RR)
    mask = np.ones_like(vals, dtype=bool)
    return cylinder.CylinderField(T=T, R=R, values=vals, mask=mask)


class TestCoefficients:
    def test_a_coeff_closed_form(self):
        T, R = 1.1, 0.7
        expected = (math.sin(T) * math.sin(R)) ** 2 / (
            1.0 + math.cos(T) * math.cos(R)
        ) ** 2
        assert cylinder.a_coeff(T, R) == pytest.approx(expected, rel=1e-15)

    def test_a_coeff_vanishes_on_axes(self):
        assert cylinder.a_coeff(0.0, 1.0) == 0.0
        assert cylinder.a_coeff(1.0, 0.0) == 0.0

    def test_a_coeff_corner_rejected(self):
        with pytest.raises(DomainError):
            cylinder.a_coeff(math.pi, 0.0)

    @given(T=st.floats(0.01, 3.0), R=st.floats(0.01, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_a_coeff_nonnegative(self, T, R):
        if 1.0 + math.cos(T) * math.cos(R) < 1e-6:
            return
        assert cylinder.a_coeff(T, R) >= 0.0


class TestPointwiseOperators:
    def test_box_g_on_first_spherical_mode(self):
        # v = cos T cos R: v_TT - v_RR - 2 cot R v_R = 2 cos T cos R
        f = lambda T, R: math.cos(T) * math.cos(R)
        for T, R in ((0.5, 0.9), (1.5, 0.4), (2.0, 1.1)):
            got = cylinder.box_g_fn(f, T, R, h=1e-4)
            assert got == pytest.approx(2.0 * math.cos(T) * math.cos(R), abs=1e-6)

    def test_field_X_matches_coefficient_contraction(self):
        f = lambda T, R: math.sin(T) * math.cos(2 * R)
        T, R = 0.8, 1.2
        cT = 1.0 + math.cos(T) * math.cos(R)
        cR = -math.sin(T) * math.sin(R)
        expected = cT * math.cos(T) * math.cos(2 * R) + cR * (
            -2.0 * math.sin(T) * math.sin(2 * R)
        )
        assert cylinder.field_X_fn(f, T, R, h=1e-5) == pytest.approx(expected, abs=1e-8)


class TestIdentityBatteries:
    def test_intertwining_battery(self):
        points = cylinder.battery_points(20)
        for name, test in cylinder.TEST_BATTERY:
            res = cylinder.intertwining_residual(test, points, h=1e-3)
            assert res < 1e-4, f"{name}: intertwining residual {res}"

    def test_commutator_battery(self):
        points = cylinder.battery_points(20)
        for name, test in cylinder.TEST_BATTERY:
            res = cylinder.commutator_residual(test, points, h=1e-3)
            assert res < 1e-5, f"{name}: commutator residual {res}"

    def test_commutator_second_order_convergence(self):
        points = cylinder.battery_points(10)
        test = dict(cylinder.TEST_BATTERY)["cosT_cos2R"]
        r1 = cylinder.commutator_residual(test, points, h=1e-3)
        r2 = cylinder.commutator_residual(test, points, h=2e-3)
        assert 3.5 <= r2 / r1 <= 4.5

    def test_singular_set_guard(self):
        test = dict(cylinder.TEST_BATTERY)["sinT_cosR"]
        with pytest.raises(DomainError):
            cylinder.commutator_residual(
                test, [geometry.EinsteinEvent(T=0.5, R=1e-5)], h=1e-3
            )

    def test_battery_points_deterministic(self):
        a = cylinder.battery_points(15, seed=4)
        b = cylinder.battery_points(15, seed=4)
        assert all(p.T == q.T and p.R == q.R for p, q in zip(a, b))


class TestGridOperators:
    def test_box_g_radial_matches_closed_form(self):
        v = make_field(lambda T, R: math.cos(T) * math.cos(R))
        out = cylinder.box_g_radial(v)
        TT, RR = np.meshgrid(v.T, v.R, indexing="ij")
        expected = 2.0 * np.cos(TT) * np.cos(RR)
        err = np.abs(out.values - expected)[out.mask]
        assert np.max(err) < 5e-3

    def test_field_X_grid_matches_pointwise(self):
        f = lambda T, R: math.sin(T) * math.cos(R)
        v = make_field(f)
        out = cylinder.field_X(v)
        i, j = 50, 100
        ref = cylinder.field_X_fn(f, v.T[i], v.R[j], h=1e-5)
        assert out.values[i, j] == pytest.approx(ref, abs=1e-4)

    def test_grad_fields_prefers_stored_derivatives(self):
        v0 = make_field(lambda T, R: T * R)
        stored = cylinder.CylinderField(
            T=v0.T, R=v0.R, values=v0.values, mask=v0.mask,
            d_T=np.full_like(v0.values, 7.0), d_R=np.full_like(v0.values, -3.0),
        )
        gT, gR = cylinder.grad_fields(stored)
        assert np.all(gT.values == 7.0)
        assert np.all(gR.values == -3.0)

    def test_empty_mask_raises(self):
        v0 = make_field(lambda T, R: 1.0, n_T=11, n_R=11)
        empty = cylinder.CylinderField(
            T=v0.T, R=v0.R, values=v0.values, mask=np.zeros_like(v0.mask)
        )
        with pytest.raises(MaskError):
            cylinder.box_g_radial(empty)

    def test_field_validation(self):
        T = np.linspace(0, 1, 5)
        R = np.linspace(0, 1, 7)
        with pytest.raises(DomainError):
            cylinder.CylinderField(
                T=T, R=R, values=np.zeros((5, 5)), mask=np.ones((5, 5), bool)
            )
        bad = np.zeros((5, 7))
        bad[2, 3] = np.nan
        with pytest.raises(DomainError):
            cylinder.CylinderField(T=T, R=R, values=bad, mask=np.ones((5, 7), bool))


class TestSliceNorms:
    def test_constant_L2_over_full_sphere(self):
        # integral of 4 pi sin^2 R over [0, pi] is 2 pi^2
        R = np.linspace(0.0, math.pi, 2001)
        row = np.full_like(R, 3.0)
        got = cylinder.slice_L2(row, R, np.ones_like(R, bool))
        assert got == pytest.approx(3.0 * math.sqrt(2.0 * math.pi**2), rel=1e-6)

    def test_L6_of_constant(self):
        R = np.linspace(0.0, math.pi, 2001)
        row = np.full_like(R, 2.0)
        got = cylinder.slice_Lp(row, R, np.ones_like(R, bool), 6.0)
        assert got == pytest.approx(2.0 * (2.0 * math.pi**2) ** (1.0 / 6.0), rel=1e-6)

    def test_masked_gap_splits_the_quadrature(self):
        R = np.linspace(0.0, math.pi, 1001)
        row = np.ones_like(R)
        mask = np.ones_like(R, bool)
        mask[400:600] = False
        full = cylinder.slice_L2(row, R, np.ones_like(R, bool))
        gapped = cylinder.slice_L2(row, R, mask)
        left = cylinder.slice_L2(row, R, mask & (np.arange(1001) < 500))
        right = cylinder.slice_L2(row, R, mask & (np.arange(1001) >= 500))
        assert gapped < full
        assert gapped**2 == pytest.approx(left**2 + right**2, rel=1e-12)

    @given(c=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, c):
        R = np.linspace(0.0, 2.0, 401)
        row = np.sin(3 * R) + 0.5
        mask = np.ones_like(R, bool)
        base = cylinder.slice_L2(row, R, mask)
        assert cylinder.slice_L2(c * row, R, mask) == pytest.approx(
            abs(c) * base, rel=1e-10, abs=1e-12
        )

    @given(
        sel=st.lists(st.booleans(), min_size=2, max_size=60),
        p=st.sampled_from([2.0, 6.0]),
        seed=st.integers(0, 2**16),
    )
    @example(sel=[False] * 7, p=2.0, seed=0)
    @example(sel=[True, False, True, True, False, True, False], p=6.0, seed=1)
    @settings(max_examples=50, deadline=None)
    def test_matches_trapezoid_over_each_valid_run(self, sel, p, seed):
        sel = np.array(sel)
        R = np.linspace(0.1, 3.0, len(sel))
        row = np.random.default_rng(seed).normal(size=len(sel))
        row[~sel] = np.nan
        integrand = np.abs(row) ** p * 4.0 * math.pi * np.sin(R) ** 2
        idx = np.flatnonzero(sel)
        runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
        total = sum(np.trapezoid(integrand[run], dx=R[1] - R[0]) for run in runs if len(run))
        got = cylinder.slice_Lp(row, R, sel, p)
        assert got == pytest.approx(total ** (1.0 / p), rel=1e-13, abs=0.0)

    def test_empty_selection_is_zero(self):
        R = np.linspace(0.0, 1.0, 11)
        assert cylinder.slice_L2(np.ones_like(R), R, np.zeros_like(R, bool)) == 0.0


class TestWeightedNorms:
    def test_constant_field_orders(self):
        v = make_field(lambda T, R: 5.0, T_max=2.5, R_max=math.pi - 0.01)
        out = cylinder.weighted_norms(v, cylinder.WeightedDerivativeSpec(order=2), T=1.0)
        l2, l6, sup = out[0]
        assert sup == pytest.approx(5.0)
        assert l2 > 0 and l6 > 0
        # all weighted derivatives of a constant vanish
        assert out[1] == pytest.approx((0.0, 0.0, 0.0), abs=1e-10)
        assert out[2] == pytest.approx((0.0, 0.0, 0.0), abs=1e-8)

    def test_first_order_weight_factor(self):
        # v = R: (pi-T)^2 d_R v = (pi-T)^2, and the T-derivative branch vanishes
        v = make_field(lambda T, R: R, T_max=2.5)
        out = cylinder.weighted_norms(v, cylinder.WeightedDerivativeSpec(order=1), T=1.5)
        row = int(np.argmin(np.abs(v.T - 1.5)))
        w = (math.pi - v.T[row]) ** 2
        assert out[1][2] == pytest.approx(w, rel=1e-6)

    def test_region_restriction(self):
        v = make_field(lambda T, R: 1.0, T_max=2.0, R_max=3.0)
        full = cylinder.weighted_norms(v, cylinder.WeightedDerivativeSpec(order=0), T=1.0)
        halved = cylinder.weighted_norms(
            v, cylinder.WeightedDerivativeSpec(order=0), T=1.0,
            region=lambda T, R: R < 1.5,
        )
        assert halved[0][0] < full[0][0]

    def test_order_cap(self):
        v = make_field(lambda T, R: 1.0)
        with pytest.raises(DomainError):
            cylinder.weighted_norms(v, cylinder.WeightedDerivativeSpec(order=4), T=1.0)

    def test_empty_row_raises(self):
        v0 = make_field(lambda T, R: 1.0, n_T=11, n_R=11)
        mask = v0.mask.copy()
        mask[5, :] = False
        v = cylinder.CylinderField(T=v0.T, R=v0.R, values=v0.values, mask=mask)
        with pytest.raises(MaskError):
            cylinder.weighted_norms(
                v, cylinder.WeightedDerivativeSpec(order=0), T=v0.T[5]
            )
