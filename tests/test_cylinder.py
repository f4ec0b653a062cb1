"""Cylinder operators, identity batteries, quadrature, and weighted norms."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penwave import cylinder
from penwave.errors import DomainError, MaskError


def _points(*pairs):
    """The (T, R) arrays of the given (T, R) pairs."""
    T, R = np.array(pairs, float).reshape(-1, 2).T
    return T, R


def make_field(fn, n_T=101, n_R=201, T_max=2.0, R_max=3.0):
    T = np.linspace(0.0, T_max, n_T)
    R = np.linspace(0.0, R_max, n_R)
    TT, RR = np.meshgrid(T, R, indexing="ij")
    vals = np.vectorize(fn)(TT, RR)
    mask = np.ones_like(vals, dtype=bool)
    return cylinder.CylinderField(T=T, R=R, values=vals, mask=mask)


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
        for T, R in ((0.5, 1e-5), (2.1, 1.04)):
            with pytest.raises(DomainError, match="too close to the singular set"):
                cylinder.commutator_residual(test, _points((T, R)), h=1e-3)

    def test_singular_set_guard_names_the_first_bad_point(self):
        test = dict(cylinder.TEST_BATTERY)["sinT_cosR"]
        fine, near_origin, near_scri = (0.5, 1.0), (0.5, 1e-5), (2.1, 1.04)
        with pytest.raises(DomainError, match=r"point \(T=0.5, R=1e-05\) too close"):
            cylinder.commutator_residual(test, _points(fine, near_origin, near_scri), h=1e-3)
        with pytest.raises(DomainError, match=r"point \(T=2.1, R=1.04\) too close"):
            cylinder.commutator_residual(test, _points(fine, near_scri, near_origin), h=1e-3)

    def test_intertwining_guards(self):
        test = dict(cylinder.TEST_BATTERY)["sinT_cosR"]
        fine, near_origin, beyond_scri = (0.5, 1.0), (0.5, 1e-5), (2.0, 1.5)
        with pytest.raises(DomainError, match="too close to the origin"):
            cylinder.intertwining_residual(test, _points(fine, near_origin), h=1e-3)
        with pytest.raises(DomainError, match="beyond null infinity"):
            cylinder.intertwining_residual(test, _points(beyond_scri), h=1e-3)
        # with both kinds present, the first bad point decides the message
        with pytest.raises(DomainError, match="too close to the origin"):
            cylinder.intertwining_residual(test, _points(near_origin, beyond_scri), h=1e-3)
        with pytest.raises(DomainError, match=re.escape(
                "event (T=2.0, R=1.5) lies on or beyond null infinity (|T| + R >= pi)")):
            cylinder.intertwining_residual(test, _points(beyond_scri, near_origin), h=1e-3)

    def test_no_points_leave_no_residual(self):
        test = dict(cylinder.TEST_BATTERY)["cosT_cosR"]
        assert cylinder.commutator_residual(test, _points(), h=1e-3) == 0.0
        assert cylinder.intertwining_residual(test, _points(), h=1e-3) == 0.0

    def test_array_evaluation_matches_point_by_point(self):
        # numpy may dispatch array and scalar ufunc calls to different kernels,
        # which differ by an ulp or so; the stencils divide that by h^2 (h^3
        # when nested), hence the tolerances.
        points = T, R = cylinder.battery_points(12, seed=3)
        singles = [_points(p) for p in zip(T, R)]
        for _, test in cylinder.TEST_BATTERY:
            for op in (cylinder.box_g_fn, cylinder.field_X_fn):
                batched = op(test, T, R, 1e-3)
                single = [op(test, Ti, Ri, 1e-3) for Ti, Ri in zip(T, R)]
                np.testing.assert_allclose(batched, single, rtol=1e-9, atol=1e-9)
            each = [cylinder.commutator_residual(test, p, h=1e-3) for p in singles]
            assert cylinder.commutator_residual(test, points, h=1e-3) == pytest.approx(
                max(each), abs=5e-7)
            each = [cylinder.intertwining_residual(test, p, h=1e-3) for p in singles]
            assert cylinder.intertwining_residual(test, points, h=1e-3) == pytest.approx(
                max(each), rel=1e-9)

    def test_battery_points_deterministic(self):
        a = cylinder.battery_points(15, seed=4)
        b = cylinder.battery_points(15, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_battery_points_draw_T_then_R_and_keep_the_interior(self):
        # the stream the batteries' inputs digest pins: one (T, R) draw per candidate
        rng, want = np.random.default_rng(4), []
        while len(want) < 15:
            T, R = rng.uniform(0.2, 2.6), rng.uniform(0.2, 2.0)
            if T + R < math.pi - 0.1:
                want.append((T, R))
        T, R = cylinder.battery_points(15, seed=4)
        assert T.dtype == R.dtype == float
        assert np.array_equal(np.column_stack([T, R]), want)


class TestGridOperators:
    def test_diff_axis_is_exact_on_quadratics_across_mask_gaps(self):
        # every stencil (centered, forward, backward) is exact on a quadratic
        T, R = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 2.0, 12)
        values = (3.0 * T ** 2 - T)[:, None] + (R ** 2 + 2.0 * R)[None, :]
        mask = np.ones(values.shape, bool)
        mask[4, :] = mask[:, 5] = False  # a gap splits each axis into runs
        mask[:, 9] = False               # leaves nodes 10 and 11 with no 3-node run
        for axis, spacing, exact in ((0, T[1] - T[0], (6.0 * T - 1.0)[:, None] + 0 * R),
                                     (1, R[1] - R[0], 0 * T[:, None] + 2.0 * R + 2.0)):
            d, ok = cylinder._diff_axis(values, mask, spacing, axis)
            np.testing.assert_allclose(d[ok], exact[ok], rtol=1e-12, atol=1e-12)
            assert np.all(np.isnan(d[~ok]))
        _, ok = cylinder._diff_axis(values, mask, R[1] - R[0], 1)
        assert np.array_equal(ok[0], [1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0])
        with pytest.raises(MaskError):
            cylinder._diff_axis(values[:2], mask[:2], 0.1, 0)

    def test_grad_fields_prefers_stored_derivatives(self):
        v0 = make_field(lambda T, R: T * R)
        stored = cylinder.CylinderField(
            T=v0.T, R=v0.R, values=v0.values, mask=v0.mask,
            d_T=np.full_like(v0.values, 7.0), d_R=np.full_like(v0.values, -3.0),
        )
        gT, gR = cylinder.grad_fields(stored)
        assert np.all(gT.values == 7.0)
        assert np.all(gR.values == -3.0)

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


def L2(row, R, sel):
    return float(cylinder.rows_Lp(row, R, sel, 2.0))


class TestSliceNorms:
    def test_constant_L2_over_full_sphere(self):
        # integral of 4 pi sin^2 R over [0, pi] is 2 pi^2
        R = np.linspace(0.0, math.pi, 2001)
        row = np.full_like(R, 3.0)
        got = L2(row, R, np.ones_like(R, bool))
        assert got == pytest.approx(3.0 * math.sqrt(2.0 * math.pi**2), rel=1e-6)

    def test_L6_of_constant(self):
        R = np.linspace(0.0, math.pi, 2001)
        row = np.full_like(R, 2.0)
        got = cylinder.rows_Lp(row, R, np.ones_like(R, bool), 6.0)
        assert got == pytest.approx(2.0 * (2.0 * math.pi**2) ** (1.0 / 6.0), rel=1e-6)

    def test_masked_gap_splits_the_quadrature(self):
        R = np.linspace(0.0, math.pi, 1001)
        row = np.ones_like(R)
        mask = np.ones_like(R, bool)
        mask[400:600] = False
        full = L2(row, R, np.ones_like(R, bool))
        gapped = L2(row, R, mask)
        left = L2(row, R, mask & (np.arange(1001) < 500))
        right = L2(row, R, mask & (np.arange(1001) >= 500))
        assert gapped < full
        assert gapped**2 == pytest.approx(left**2 + right**2, rel=1e-12)

    @given(c=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, c):
        R = np.linspace(0.0, 2.0, 401)
        row = np.sin(3 * R) + 0.5
        mask = np.ones_like(R, bool)
        base = L2(row, R, mask)
        assert L2(c * row, R, mask) == pytest.approx(abs(c) * base, rel=1e-10, abs=1e-12)

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
        got = cylinder.rows_Lp(row, R, sel, p)
        assert got == pytest.approx(total ** (1.0 / p), rel=1e-13, abs=0.0)

    def test_empty_selection_is_zero(self):
        R = np.linspace(0.0, 1.0, 11)
        assert L2(np.ones_like(R), R, np.zeros_like(R, bool)) == 0.0


def row_norms(v, order, T):
    """weighted_row_norms at the grid row nearest to T, as floats per order."""
    row = int(np.argmin(np.abs(v.T - T)))
    norms = cylinder.weighted_row_norms(v, order, np.array([row]))
    return {k: tuple(float(x[0]) for x in n) for k, n in norms.items()}


class TestWeightedNorms:
    def test_constant_field_orders(self):
        v = make_field(lambda T, R: 5.0, T_max=2.5, R_max=math.pi - 0.01)
        out = row_norms(v, 2, T=1.0)
        l2, l6, sup = out[0]
        assert sup == pytest.approx(5.0)
        assert l2 > 0 and l6 > 0
        # all weighted derivatives of a constant vanish
        assert out[1] == pytest.approx((0.0, 0.0, 0.0), abs=1e-10)
        assert out[2] == pytest.approx((0.0, 0.0, 0.0), abs=1e-8)

    def test_first_order_weight_factor(self):
        # v = R: (pi-T)^2 d_R v = (pi-T)^2, and the T-derivative branch vanishes
        v = make_field(lambda T, R: R, T_max=2.5)
        out = row_norms(v, 1, T=1.5)
        row = int(np.argmin(np.abs(v.T - 1.5)))
        w = (math.pi - v.T[row]) ** 2
        assert out[1][2] == pytest.approx(w, rel=1e-6)

    def test_region_restriction(self):
        # a region is a node mask combined with the validity mask
        v = make_field(lambda T, R: 1.0, T_max=2.0, R_max=3.0)
        row = int(np.argmin(np.abs(v.T - 1.0)))
        full = L2(v.values[row], v.R, v.mask[row])
        halved = L2(v.values[row], v.R, v.mask[row] & (v.R < 1.5))
        assert 0.0 < halved < full

    def test_order_cap(self):
        v = make_field(lambda T, R: 1.0)
        with pytest.raises(DomainError):
            cylinder.weighted_row_norms(v, 4, np.array([50]))

    def test_negative_order_rejected(self):
        v = make_field(lambda T, R: 1.0)
        with pytest.raises(DomainError, match="outside 0..3"):
            cylinder.weighted_row_norms(v, -1, np.array([50]))

    def test_empty_row_raises(self):
        v0 = make_field(lambda T, R: 1.0, n_T=11, n_R=11)
        mask = v0.mask.copy()
        mask[5, :] = False
        v = cylinder.CylinderField(T=v0.T, R=v0.R, values=v0.values, mask=mask)
        with pytest.raises(MaskError, match=f"row T={v0.T[5]} has no valid nodes"):
            cylinder.weighted_row_norms(v, 0, np.array([4, 5, 6]))
