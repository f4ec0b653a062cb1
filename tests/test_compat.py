"""Jet recursion, numerical differentiation, and compatibility checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penwave import compat
from penwave.errors import DomainError, OrderError
from penwave.geometry import ObstacleSpec

R0, RMAX, DR = 0.2, 4.0, 2e-3


def bump_profiles(center=1.5, width=0.25, g_amp=1.0, f_amp=0.0):
    f = compat.RadialProfile.from_callable(
        compat.gaussian_bump(center, width, f_amp), R0, RMAX, DR
    )
    g = compat.RadialProfile.from_callable(
        compat.gaussian_bump(center, width, g_amp), R0, RMAX, DR
    )
    return f, g


class TestDeriv4:
    def test_polynomial_exactness(self):
        # 4th-order interior stencil differentiates quartics exactly
        r = np.linspace(0.0, 1.0, 101)
        vals = r**4 - 2 * r**2 + 3
        d = compat.deriv4(vals, r[1] - r[0])
        interior = slice(3, -3)
        assert np.allclose(d[interior], (4 * r**3 - 4 * r)[interior], atol=1e-12)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (101, 201):
            r = np.linspace(0.0, 1.0, n)
            d = compat.deriv4(np.sin(4 * r), r[1] - r[0])
            errs.append(np.max(np.abs(d - 4 * np.cos(4 * r))[4:-4]))
        assert errs[0] / errs[1] > 12.0  # ~16 for a 4th-order method

    def test_repeated_differentiation(self):
        r = np.linspace(0.0, 2.0, 401)
        d2 = compat.deriv4(compat.deriv4(np.exp(r), r[1] - r[0]), r[1] - r[0])
        assert np.allclose(d2[6:-6], np.exp(r)[6:-6], rtol=1e-5)


class TestRadialProfile:
    def test_grid_construction(self):
        p = compat.RadialProfile.from_callable(lambda r: r**2, 0.5, 2.5, 0.1)
        assert p.r[0] == pytest.approx(0.5)
        assert p.r[-1] == pytest.approx(2.5)
        assert np.allclose(p.values, p.r**2)

    def test_rejects_nonfinite_values(self):
        with pytest.raises(DomainError):
            compat.RadialProfile(r0=0.0, dr=0.1, values=np.array([1.0, np.inf]))


class TestNonlinearitySpec:
    def test_degree_cap(self):
        with pytest.raises(DomainError):
            compat.NonlinearitySpec(name="quartic", terms=((1.0, (4, 0, 0)),))


class TestComputeJet:
    def test_first_two_orders_are_the_data(self):
        f, g = bump_profiles(f_amp=0.5)
        jet = compat.compute_jet(f, g, compat.ZERO, K=3)
        assert np.array_equal(jet.psi[0].values, f.values)
        assert np.array_equal(jet.psi[1].values, g.values)
        assert jet.K == 3

    def test_linear_psi2_is_spatial_operator_of_f(self):
        f, g = bump_profiles(f_amp=1.0, g_amp=0.0)
        jet = compat.compute_jet(f, g, compat.ZERO, K=2)
        r = f.r
        f_r = compat.deriv4(f.values, DR)
        expected = compat.deriv4(f_r, DR) + (2.0 / r) * f_r
        assert np.allclose(jet.psi[2].values, expected)

    def test_dt_squared_nonlinear_contributions(self):
        # f = 0: psi_2 = g^2 and psi_3 = Delta g + 2 g psi_2 exactly
        f, g = bump_profiles()
        jet = compat.compute_jet(f, g, compat.DT_SQUARED, K=3)
        assert np.allclose(jet.psi[2].values, g.values**2, atol=1e-12)
        r = g.r
        g_r = compat.deriv4(g.values, DR)
        lap_g = compat.deriv4(g_r, DR) + (2.0 / r) * g_r
        assert np.allclose(jet.psi[3].values, lap_g + 2.0 * g.values**3, atol=1e-10)

    @given(a=st.floats(0.2, 3.0), b=st.floats(0.2, 3.0))
    @example(a=0.859375, b=2.5)
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_the_data_for_trivial_nonlinearity(self, a, b):
        f1, g1 = bump_profiles(center=1.2, width=0.2)
        f2, g2 = bump_profiles(center=1.9, width=0.3)
        mixed_f = compat.RadialProfile(r0=R0, dr=DR, values=a * f1.values + b * f2.values)
        mixed_g = compat.RadialProfile(r0=R0, dr=DR, values=a * g1.values + b * g2.values)
        j1 = compat.compute_jet(f1, g1, compat.ZERO, K=4)
        j2 = compat.compute_jet(f2, g2, compat.ZERO, K=4)
        jm = compat.compute_jet(mixed_f, mixed_g, compat.ZERO, K=4)
        for k in range(5):
            combo = a * j1.psi[k].values + b * j2.psi[k].values
            # round-off grows by dr^-2 with each of the k // 2 Laplacians applied
            data = (mixed_f if k % 2 == 0 else mixed_g).values
            atol = 16 * np.finfo(float).eps * np.max(np.abs(data)) * DR ** (-2 * (k // 2))
            assert np.allclose(jm.psi[k].values, combo, rtol=1e-10, atol=atol)

    def test_grid_mismatch_rejected(self):
        f, _ = bump_profiles()
        g_other = compat.RadialProfile.from_callable(
            compat.gaussian_bump(1.5, 0.25), R0 + 0.1, RMAX, DR
        )
        with pytest.raises(DomainError):
            compat.compute_jet(f, g_other, compat.ZERO, K=2)

    def test_order_limits(self):
        f, g = bump_profiles()
        with pytest.raises(OrderError):
            compat.compute_jet(f, g, compat.ZERO, K=compat.MAX_JET_ORDER + 1)
        with pytest.raises(OrderError, match="^jet order -1 is outside"):
            compat.compute_jet(f, g, compat.ZERO, K=-1)


class TestVerifyJet:
    def test_linear_jet_matches_reference_evolution(self):
        f, g = bump_profiles()
        jet = compat.compute_jet(f, g, compat.ZERO, K=4)
        errs = compat.verify_jet(jet, f, g, compat.ZERO)
        assert errs[0] == 0.0 and errs[1] == 0.0
        for k in (2, 3, 4):
            assert errs[k] < 1e-3, f"order {k}: {errs[k]}"

    def test_nonlinear_jet_matches_reference_evolution(self):
        f, g = bump_profiles()
        jet = compat.compute_jet(f, g, compat.Q0_RADIAL, K=4)
        errs = compat.verify_jet(jet, f, g, compat.Q0_RADIAL)
        for k in (2, 3, 4):
            assert errs[k] < 1e-3, f"order {k}: {errs[k]}"

    def test_callable_coefficient_jet_matches_reference_evolution(self):
        # the rewritten time-reversed problem multiplied the callable by -1: a TypeError
        F = compat.NonlinearitySpec("u-q0", ((lambda r: 1.0 + 0.1 * np.sin(r), (1, 2, 0)),
                                             (-1.0, (1, 0, 2))))
        f, g = bump_profiles(f_amp=0.5)
        errs = compat.verify_jet(compat.compute_jet(f, g, F, K=4), f, g, F)
        for k in (2, 3, 4):
            assert errs[k] < 1e-3, f"order {k}: {errs[k]}"  # measured 2e-6 to 1.2e-5

    def test_wrong_jet_is_flagged(self):
        # feed the linear jet to a nonlinear verification: orders >= 2 must fail
        f, g = bump_profiles()
        jet = compat.compute_jet(f, g, compat.ZERO, K=3)
        errs = compat.verify_jet(jet, f, g, compat.DT_SQUARED)
        assert errs[2] > 1e-2  # measured 0.2424


class TestCheckCompatibility:
    def test_bump_away_from_boundary_is_compatible(self):
        f, g = bump_profiles()
        jet = compat.compute_jet(f, g, compat.ZERO, K=4)
        report = compat.check_compatibility(jet, ObstacleSpec(R0), s=4)
        assert report.compatible
        assert len(report.boundary_values) == 5

    def test_nonvanishing_even_order_fails(self):
        # g = (r - r_b) * bump vanishes at r_b but psi_2 of f = bump does not
        f = compat.RadialProfile.from_callable(
            compat.gaussian_bump(R0, 0.5), R0, RMAX, DR
        )
        g = compat.RadialProfile(r0=R0, dr=DR, values=np.zeros_like(f.values))
        jet = compat.compute_jet(f, g, compat.ZERO, K=2)
        report = compat.check_compatibility(jet, ObstacleSpec(R0), s=2)
        assert not report.compatible
        assert not report.passed[0]  # f itself is nonzero at the boundary

    def test_order_exceeding_jet_rejected(self):
        f, g = bump_profiles()
        jet = compat.compute_jet(f, g, compat.ZERO, K=2)
        with pytest.raises(OrderError):
            compat.check_compatibility(jet, ObstacleSpec(R0), s=3)
        with pytest.raises(OrderError, match="^requested order -1 is outside"):
            compat.check_compatibility(jet, ObstacleSpec(R0), s=-1)

    def test_explicit_tolerance_respected(self):
        f, g = bump_profiles()
        jet = compat.compute_jet(f, g, compat.ZERO, K=1)
        strict = compat.check_compatibility(jet, ObstacleSpec(R0), s=1, tol=0.0)
        loose = compat.check_compatibility(jet, ObstacleSpec(R0), s=1, tol=1e300)
        assert loose.compatible
        assert strict.boundary_values == loose.boundary_values

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_tolerance_that_is_not_finite_and_nonnegative_is_rejected(self, tol):
        # NaN and -1 failed every order, |psi_0(r_b)| = 0 included; inf passed every order
        f, g = bump_profiles()
        jet = compat.compute_jet(f, g, compat.ZERO, K=1)
        with pytest.raises(DomainError, match=rf"^tol must be finite and >= 0, got {tol}$"):
            compat.check_compatibility(jet, ObstacleSpec(R0), s=1, tol=tol)
