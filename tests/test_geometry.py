"""Coordinate map, conformal factor, frames, and boundary-curve tests."""

import math
import re

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
        assert geometry.omega_factor(0.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_closed_forms_agree_on_grid(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 50.0, size=(500, 2))
        for t, r in pts:
            res = geometry.to_einstein(geometry.MinkowskiEvent(t=t, r=r))
            trig = math.cos(res.einstein.T) + math.cos(res.einstein.R)
            assert abs(res.omega_factor - trig) < 1e-12

    @given(t=times, r=finite_coords)
    @settings(max_examples=200, deadline=None)
    def test_positive_inside_diamond(self, t, r):
        assert geometry.omega_factor(t, r) > 0.0


class TestCompactification:
    def test_null_ray_maps_to_null_line(self):
        # outgoing ray t = r + 1: T + R = pi - 2 arctan'ish constant offset
        for r in (0.5, 5.0, 50.0):
            res = geometry.to_einstein(geometry.MinkowskiEvent(t=r + 1.0, r=r))
            ev = res.einstein
            assert ev.T - ev.R == pytest.approx(2.0 * math.atan(1.0), abs=1e-12)

    @given(t=times, r=finite_coords)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, t, r):
        ev = geometry.to_einstein(geometry.MinkowskiEvent(t=t, r=r)).einstein
        assert abs(ev.T) + ev.R < math.pi
        back = geometry.to_minkowski(ev)
        scale = 1.0 + abs(t) + r
        assert abs(back.t - t) / scale < 1e-9
        assert abs(back.r - r) / scale < 1e-9

    def test_to_minkowski_rejects_diamond_boundary(self):
        with pytest.raises(DomainError):
            geometry.to_minkowski(geometry.EinsteinEvent(T=math.pi / 2, R=math.pi / 2))

    def test_spatial_infinity_limit(self):
        ev = geometry.to_einstein(geometry.MinkowskiEvent(t=0.0, r=1e8)).einstein
        assert ev.R == pytest.approx(math.pi, abs=1e-6)
        assert ev.T == pytest.approx(0.0, abs=1e-12)


def _events(n):
    """Up to n Minkowski events (t, r), as two arrays."""
    return st.integers(1, n).flatmap(lambda k: st.tuples(
        arrays(float, k, elements=times), arrays(float, k, elements=finite_coords)))


class TestArrayClosedForms:
    @given(tr=_events(40))
    @settings(max_examples=100, deadline=None)
    def test_arrays_equal_the_scalar_wrappers(self, tr):
        t, r = tr
        T, R = geometry.einstein_coords(t, r)
        om = geometry.omega_minkowski(t, r)
        p, q = geometry.frame_terms(t, r)
        for i in range(len(t)):
            res = geometry.to_einstein(geometry.MinkowskiEvent(t=float(t[i]), r=float(r[i])))
            fr = geometry.frame_at(geometry.MinkowskiEvent(t=float(t[i]), r=float(r[i])))
            assert type(res.einstein.T) is float and type(res.omega_factor) is float
            # a scalar squares with pow, an array by multiplying: p - q may differ
            # by the round-off of p + q, which it cancels
            for array_value, scalar, scale in (
                    (T[i], res.einstein.T, res.einstein.T), (R[i], res.einstein.R, res.einstein.R),
                    (om[i], res.omega_factor, res.omega_factor),
                    (p[i] + q[i], fr.jac[0, 0], fr.jac[0, 0]),
                    (p[i] - q[i], fr.jac[0, 1], fr.jac[0, 0])):
                assert abs(array_value - scalar) <= 1e-15 * abs(scale)
            if abs(T[i]) + R[i] < math.pi:
                back = geometry.to_minkowski(res.einstein)
                bt, br = geometry.minkowski_coords(T[i], R[i])
                assert abs(bt - back.t) <= 1e-15 * abs(back.t)
                assert abs(br - back.r) <= 1e-15 * abs(back.r)

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
    def test_minkowski_mask_is_what_the_event_accepts(self, t, r):
        try:
            geometry.MinkowskiEvent(t=t, r=r)
            accepted = True
        except DomainError as exc:
            accepted = False
            if not math.isfinite(t):
                assert str(exc) == f"t must be finite, got {t}"
            elif not math.isfinite(r):
                assert str(exc) == f"r must be finite, got {r}"
        assert geometry.minkowski_valid(np.array([t]), np.array([r]))[0] == accepted

    @given(T=any_float, R=any_float)
    @settings(max_examples=300, deadline=None)
    def test_diamond_mask_is_what_to_minkowski_accepts(self, T, R):
        try:
            geometry.to_minkowski(geometry.EinsteinEvent(T=T, R=R))
            accepted = True
        except DomainError as exc:
            accepted = False
            if not math.isfinite(T):
                assert str(exc) == f"T must be finite, got {T}"
        with np.errstate(invalid="ignore", over="ignore"):  # |inf| + -inf, 1e308 + 1e308
            assert geometry.in_diamond(np.array([T]), np.array([R]))[0] == accepted

    @pytest.mark.parametrize("T", [10.0, -10.0, math.pi, -math.pi, 4.0])
    def test_einstein_event_rejects_time_outside_the_cylinder_range(self, T):
        # T = 10 used to construct
        with pytest.raises(DomainError, match=re.escape(f"T must lie in (-pi, pi), got {T}")):
            geometry.EinsteinEvent(T=T, R=0.5)

    def test_time_rounding_to_pi_is_rejected_not_mapped_to_the_boundary(self):
        assert geometry.to_einstein(geometry.MinkowskiEvent(t=1e15, r=0.0)).einstein.T < math.pi
        for t in (1e17, -1e17):
            with pytest.raises(DomainError, match=r"T must lie in \(-pi, pi\)"):
                geometry.to_einstein(geometry.MinkowskiEvent(t=t, r=1.0))

    def test_infinite_time_is_rejected_not_mapped_to_the_boundary(self):
        # arctan(inf) would place (inf, 0) at T = pi, R = 0 with Omega = 0
        for t, r in ((math.inf, 0.0), (-math.inf, 2.0), (3.0, math.inf)):
            with pytest.raises(DomainError, match="must be finite"):
                geometry.to_einstein(geometry.MinkowskiEvent(t=t, r=r))


class TestRegionPredicates:
    def test_r_of_rejects_degenerate_rows(self):
        # beyond null infinity cos T + cos R < 0: no finite Minkowski radius r(T, R)
        T, R = math.pi - 0.1, 3.0
        assert math.cos(T) + math.cos(R) < 0
        assert not geometry.in_diamond(np.array([T]), np.array([R]))[0]
        with pytest.raises(DomainError):
            geometry.to_minkowski(geometry.EinsteinEvent(T=T, R=R))


class TestFrame:
    def test_jacobian_matches_finite_differences(self):
        h = 1e-6
        for t, r in ((0.7, 1.3), (3.0, 0.5), (10.0, 12.0)):
            fr = geometry.frame_at(geometry.MinkowskiEvent(t=t, r=r))

            def T_of(tt, rr):
                return geometry.to_einstein(geometry.MinkowskiEvent(t=tt, r=rr)).einstein.T

            def R_of(tt, rr):
                return geometry.to_einstein(geometry.MinkowskiEvent(t=tt, r=rr)).einstein.R

            fd = np.array([
                [(T_of(t + h, r) - T_of(t - h, r)) / (2 * h),
                 (T_of(t, r + h) - T_of(t, r - h)) / (2 * h)],
                [(R_of(t + h, r) - R_of(t - h, r)) / (2 * h),
                 (R_of(t, r + h) - R_of(t, r - h)) / (2 * h)],
            ])
            assert np.allclose(fr.jac, fd, rtol=1e-6, atol=1e-8)

    @given(t=st.floats(0, 30), r=st.floats(0.1, 30))
    @settings(max_examples=100, deadline=None)
    def test_time_coefficient_identity(self, t, r):
        # dT/dt = 1 + cos R cos T in the conformal normalization Omega^2
        fr = geometry.frame_at(geometry.MinkowskiEvent(t=t, r=r))
        ev = geometry.to_einstein(geometry.MinkowskiEvent(t=t, r=r)).einstein
        assert fr.jac[0, 0] * 1.0 == pytest.approx(
            1.0 + math.cos(ev.R) * math.cos(ev.T), rel=1e-9, abs=1e-12
        )

    def test_omega_gradient_matches_finite_differences(self):
        h = 1e-6
        t, r = 1.7, 0.9
        fr = geometry.frame_at(geometry.MinkowskiEvent(t=t, r=r))
        g_t = (geometry.omega_factor(t + h, r) - geometry.omega_factor(t - h, r)) / (2 * h)
        g_r = (geometry.omega_factor(t, r + h) - geometry.omega_factor(t, r - h)) / (2 * h)
        assert fr.omega_grad[0] == pytest.approx(g_t, rel=1e-6)
        assert fr.omega_grad[1] == pytest.approx(g_r, rel=1e-6)


class TestBoundaryCurve:
    def setup_method(self):
        self.obs = geometry.ObstacleSpec(0.2)

    def test_initial_radius(self):
        # at T = 0 the curve solves sin R = r_b (1 + cos R), i.e. R = 2 arctan r_b
        phi0 = geometry.boundary_curve(self.obs, 0.0)
        assert phi0 == pytest.approx(2.0 * math.atan(0.2), abs=1e-12)

    def test_preimage_is_the_obstacle_radius(self):
        for T in (0.5, 1.5, 2.8, 3.1):
            phi = geometry.boundary_curve(self.obs, T)
            mk = geometry.to_minkowski(geometry.EinsteinEvent(T=T, R=phi))
            assert mk.r == pytest.approx(0.2, rel=1e-10)

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
