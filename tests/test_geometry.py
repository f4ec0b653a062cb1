"""Coordinate map, conformal factor, frames, and boundary-curve tests, on the array closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from penwave import geometry
from penwave.errors import DomainError

finite_coords = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)
times = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)
any_float = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                      st.sampled_from([0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi]))


class TestConformalFactor:
    def test_origin_value(self):
        assert geometry.omega_minkowski(0.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_closed_forms_agree_on_grid(self):
        t, r = np.random.default_rng(3).uniform(0.0, 50.0, size=(500, 2)).T
        T, R = geometry.einstein_coords(t, r)
        trig = [math.cos(Ti) + math.cos(Ri) for Ti, Ri in zip(T, R)]
        assert np.all(np.abs(geometry.omega_minkowski(t, r) - trig) < 1e-12)

    @given(t=times, r=finite_coords)
    @settings(max_examples=200, deadline=None)
    def test_positive_inside_diamond(self, t, r):
        assert geometry.omega_minkowski(t, r) > 0.0


class TestCompactification:
    def test_null_ray_maps_to_null_line(self):
        # outgoing ray t = r + 1: T - R = 2 arctan 1 all along it
        r = np.array([0.5, 5.0, 50.0])
        T, R = geometry.einstein_coords(r + 1.0, r)
        assert np.allclose(T - R, 2.0 * math.atan(1.0), rtol=0, atol=1e-12)

    def test_diamond_boundary_is_outside_the_mask(self):
        assert not geometry.in_diamond(math.pi / 2, math.pi / 2)

    def test_spatial_infinity_limit(self):
        T, R = geometry.einstein_coords(0.0, 1e8)
        assert R == pytest.approx(math.pi, abs=1e-6)
        assert T == pytest.approx(0.0, abs=1e-12)


def _events(n):
    """Up to n Minkowski events (t, r), as two arrays."""
    return st.integers(1, n).flatmap(lambda k: st.tuples(
        arrays(float, k, elements=times), arrays(float, k, elements=finite_coords)))


class TestArrayClosedForms:
    @given(tr=_events(40))
    @settings(max_examples=100, deadline=None)
    def test_arrays_match_the_math_module_forms(self, tr):
        # the formulas as the scalar code wrote them with math, one ulp apart at most
        t, r = tr
        T, R = geometry.einstein_coords(t, r)
        om = geometry.omega_minkowski(t, r)
        om_cyl = geometry.omega_einstein(T, R)
        for i in range(len(t)):
            a, b = math.atan(t[i] + r[i]), math.atan(t[i] - r[i])
            assert abs(T[i] - (a + b)) <= 1e-15 and abs(R[i] - (a - b)) <= 1e-15
            ref = 2.0 / math.sqrt((1.0 + (t[i] + r[i]) ** 2) * (1.0 + (t[i] - r[i]) ** 2))
            assert abs(om[i] - ref) <= 1e-15 * ref
            assert abs(om_cyl[i] - (math.cos(T[i]) + math.cos(R[i]))) <= 1e-15

    @given(tr=_events(40))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_on_arrays(self, tr):
        t, r = tr
        T, R = geometry.einstein_coords(t, r)
        assert np.all(geometry.in_diamond(T, R))
        back_t, back_r = geometry.minkowski_coords(T, R)
        scale = 1.0 + np.abs(t) + r
        assert np.all(np.abs(back_t - t) / scale < 1e-9)
        assert np.all(np.abs(back_r - r) / scale < 1e-9)

    def test_arrays_keep_their_shape(self):
        t = np.linspace(0.0, 5.0, 12).reshape(3, 4)
        for out in (*geometry.einstein_coords(t, 1.0), geometry.omega_minkowski(t, 1.0),
                    *geometry.frame_terms(t, 1.0), *geometry.minkowski_coords(t / 10, 0.5)):
            assert out.shape == (3, 4)

    @given(t=any_float, r=any_float)
    @settings(max_examples=300, deadline=None)
    def test_minkowski_mask_is_finite_nonnegative_radius(self, t, r):
        accepted = math.isfinite(t) and math.isfinite(r) and r >= 0
        assert geometry.minkowski_valid(np.array([t]), np.array([r]))[0] == accepted

    @given(T=any_float, R=any_float)
    @settings(max_examples=300, deadline=None)
    def test_diamond_mask_is_the_open_diamond(self, T, R):
        accepted = math.isfinite(T) and math.isfinite(R) and R >= 0 and abs(T) + R < math.pi
        with np.errstate(invalid="ignore", over="ignore"):  # |inf| + -inf, 1e308 + 1e308
            assert geometry.in_diamond(np.array([T]), np.array([R]))[0] == accepted

    def test_time_rounds_to_pi_only_beyond_1e16(self):
        # both arctans round to +-pi/2 there, so T leaves the open cylinder (-pi, pi)
        assert geometry.einstein_coords(1e15, 0.0)[0] < math.pi
        T, _ = geometry.einstein_coords(np.array([1e17, -1e17]), 1.0)
        assert np.array_equal(T, [math.pi, -math.pi])

    def test_infinite_coordinates_are_outside_the_mask(self):
        # arctan(inf) would place (inf, 0) at T = pi, R = 0 with Omega = 0
        t, r = np.array([math.inf, -math.inf, 3.0]), np.array([0.0, 2.0, math.inf])
        assert not geometry.minkowski_valid(t, r).any()


class TestRegionPredicates:
    def test_r_of_rejects_degenerate_rows(self):
        # beyond null infinity cos T + cos R < 0: no finite Minkowski radius r(T, R)
        T, R = math.pi - 0.1, 3.0
        assert math.cos(T) + math.cos(R) < 0
        assert not geometry.in_diamond(np.array([T]), np.array([R]))[0]


class TestFrame:
    def test_jacobian_matches_finite_differences(self):
        h = 1e-6
        t, r = np.array([0.7, 3.0, 10.0]), np.array([1.3, 0.5, 12.0])
        p, q = geometry.frame_terms(t, r)
        jac = np.array([[p + q, p - q], [p - q, p + q]])
        dt = (np.array(geometry.einstein_coords(t + h, r))
              - np.array(geometry.einstein_coords(t - h, r))) / (2 * h)
        dr = (np.array(geometry.einstein_coords(t, r + h))
              - np.array(geometry.einstein_coords(t, r - h))) / (2 * h)
        # jac[i, j]: the d_T (j = 0) or d_R (j = 1) component of d_t (i = 0) or d_r (i = 1)
        fd = np.array([[dt[0], dt[1]], [dr[0], dr[1]]])
        assert np.allclose(jac, fd, rtol=1e-6, atol=1e-8)

    @given(tr=_events(40))
    @settings(max_examples=100, deadline=None)
    def test_time_coefficient_identity(self, tr):
        # dT/dt = p + q = 1 + cos R cos T in the conformal normalization Omega^2
        t, r = tr
        p, q = geometry.frame_terms(t, r)
        T, R = geometry.einstein_coords(t, r)
        assert np.allclose(p + q, 1.0 + np.cos(R) * np.cos(T), rtol=1e-9, atol=1e-12)


class TestBoundaryCurve:
    def setup_method(self):
        self.obs = geometry.ObstacleSpec(0.2)

    def test_initial_radius(self):
        # at T = 0 the curve solves sin R = r_b (1 + cos R), i.e. R = 2 arctan r_b
        phi0 = geometry.boundary_curve(self.obs, 0.0)
        assert phi0 == pytest.approx(2.0 * math.atan(0.2), abs=1e-12)

    def test_preimage_is_the_obstacle_radius(self):
        T = np.array([0.5, 1.5, 2.8, 3.1])
        phi = np.array([geometry.boundary_curve(self.obs, Tv) for Tv in T])
        _, r = geometry.minkowski_coords(T, phi)
        assert np.allclose(r, 0.2, rtol=1e-10, atol=0)

    def test_collapse_rate(self):
        # Phi(T) / (pi - T)^2 stays in a fixed band as T -> pi
        ratios = []
        for eps in np.geomspace(1e-1, 1e-5, 9):
            phi = geometry.boundary_curve(self.obs, math.pi - eps)
            ratios.append(phi / eps ** 2)
        assert max(ratios) / min(ratios) < 1.5

    def test_slope_matches_finite_differences(self):
        h = 1e-6
        for T in (0.3, 1.0, math.pi / 2, 2.5, 3.0):
            fd = (geometry.boundary_curve(self.obs, T + h)
                  - geometry.boundary_curve(self.obs, T - h)) / (2 * h)
            slope = geometry.boundary_curve_slope(self.obs, T)
            assert slope == pytest.approx(fd, rel=1e-6)
            assert slope < 0.0

    def test_monotone_decreasing(self):
        T = np.linspace(0.0, math.pi - 1e-3, 100)
        phi = np.array([geometry.boundary_curve(self.obs, Tv) for Tv in T])
        assert np.all(np.diff(phi) < 0)

    def test_obstacle_spec_validation(self):
        with pytest.raises(DomainError):
            geometry.ObstacleSpec(0.3)
        with pytest.raises(DomainError):
            geometry.ObstacleSpec(0.0)
