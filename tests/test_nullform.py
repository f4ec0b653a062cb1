"""Algebraic null-condition classifier and pushforward-coefficient tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penwave import geometry, nullform
from penwave.errors import DomainError

small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def random_semilinear(rng, n=1):
    return nullform.QuadraticFormSpec(s=rng.normal(size=(n, n, n, 4, 4)))


def random_null_semilinear(rng, n=1):
    """lam * quadric + antisymmetric part: null by construction."""
    s = np.zeros((n, n, n, 4, 4))
    for idx in np.ndindex(n, n, n):
        a = rng.normal(size=(4, 4))
        s[idx] = rng.normal() * np.diag([1.0, -1.0, -1.0, -1.0]) + (a - a.T)
    return nullform.QuadraticFormSpec(s=s)


class TestSemilinearClassifier:
    def test_q0_exact(self):
        verdict, dec = nullform.check_null_semilinear(nullform.q0_spec(exact=True))
        assert verdict
        assert dec.residual == 0.0
        assert dec.lam[0, 0, 0] == Fraction(1)

    def test_rotation_forms_exact(self):
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
            verdict, dec = nullform.check_null_semilinear(
                nullform.qij_spec(i, j, exact=True)
            )
            assert verdict
            assert dec.residual == 0.0
            assert dec.lam[0, 0, 0] == 0
            assert dec.antisym[0, 0, 0, i, j] != 0

    def test_dt_squared_rejected(self):
        s = np.zeros((1, 1, 1, 4, 4))
        s[0, 0, 0, 0, 0] = 1.0
        verdict, dec = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        assert not verdict
        assert dec.residual > 0.1

    def test_tol_is_the_bound_the_verdict_applies(self):
        _, dec = nullform.check_null_semilinear(nullform.q0_spec(exact=True))
        assert dec.tol == 0.0
        s = np.zeros((1, 1, 1, 4, 4))
        s[0, 0, 0] = 1e3 * np.diag([1.0, -1.0, -1.0, -1.0])
        s[0, 0, 0, 1, 2] = s[0, 0, 0, 2, 1] = 1e-8
        verdict, dec = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        assert dec.tol == pytest.approx(nullform.VERDICT_TOL * 2e3)
        assert verdict and nullform.VERDICT_TOL < dec.residual < dec.tol
        s[0, 0, 0, 1, 2] = s[0, 0, 0, 2, 1] = 1e-6
        verdict, dec = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        assert not verdict and dec.residual > dec.tol

    def test_exact_near_miss_is_rejected(self):
        # a tiny symmetric defect that a float tolerance would wave through
        s = np.zeros((1, 1, 1, 4, 4), dtype=object)
        s[0, 0, 0] = np.diag(
            [Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1)]
        ) + np.full((4, 4), Fraction(0))
        s[0, 0, 0, 1, 2] = Fraction(1, 10**12)
        s[0, 0, 0, 2, 1] = Fraction(1, 10**12)
        verdict, _ = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        assert not verdict

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_constructed_null_forms_pass(self, seed):
        rng = np.random.default_rng(seed)
        verdict, dec = nullform.check_null_semilinear(random_null_semilinear(rng))
        assert verdict
        assert dec.residual < 1e-12

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_verdict_matches_cone_oracle(self, seed):
        rng = np.random.default_rng(seed)
        q = random_null_semilinear(rng) if seed % 2 else random_semilinear(rng)
        verdict, _ = nullform.check_null_semilinear(q)
        worst = nullform.cone_sample_oracle(q, 100, rng=np.random.default_rng(seed))
        assert verdict == (worst < 1e-10)

    def test_multicomponent_slices_checked_independently(self):
        s = np.zeros((2, 2, 2, 4, 4))
        s[0, 0, 0] = np.diag([1.0, -1.0, -1.0, -1.0])
        verdict, _ = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        assert verdict
        s[1, 0, 1, 0, 0] = 1.0  # plant a u_t^2-type defect in another slice
        verdict, _ = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        assert not verdict

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            nullform.QuadraticFormSpec(s=np.zeros((1, 1, 1, 3, 3)))
        with pytest.raises(DomainError):
            nullform.QuadraticFormSpec(s=np.zeros((1, 2, 1, 4, 4)))


class TestQuasilinearClassifier:
    @staticmethod
    def quadric_times_linear(ell):
        """Cubic tensor whose symbol is (xi_0^2 - |xi'|^2) ell(xi)."""
        k = np.zeros((1, 1, 4, 4, 4))
        diag = [1.0, -1.0, -1.0, -1.0]
        for m in range(4):
            for j in range(4):
                k[0, 0, j, j, m] += diag[j] * ell[m]
        return nullform.CubicFormSpec(k=k)

    def test_quadric_multiples_accepted(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ell = rng.normal(size=4)
            verdict, dec = nullform.check_null_quasilinear(self.quadric_times_linear(ell))
            assert verdict
            assert np.allclose(dec.linear_factor[0, 0], ell, atol=1e-10)

    def test_generic_cubic_rejected(self):
        rng = np.random.default_rng(11)
        k = rng.normal(size=(1, 1, 4, 4, 4))
        verdict, dec = nullform.check_null_quasilinear(nullform.CubicFormSpec(k=k))
        assert not verdict
        assert dec.residual > 1e-3

    def test_trivially_null_part_does_not_affect_verdict(self):
        # antisymmetric-in-(i,j) tensors symmetrize to zero: null for free
        rng = np.random.default_rng(5)
        base = self.quadric_times_linear(np.array([1.0, 0.5, 0.0, -2.0]))
        noise = rng.normal(size=(1, 1, 4, 4, 4))
        noise = noise - noise.transpose(0, 1, 3, 2, 4)  # kills full symmetrization
        spiked = nullform.CubicFormSpec(k=base.k + noise)
        verdict, dec = nullform.check_null_quasilinear(spiked)
        assert verdict
        assert nullform._frobenius(dec.trivially_null) > 0.1

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_verdict_matches_cone_oracle(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            q = self.quadric_times_linear(rng.normal(size=4))
        else:
            q = nullform.CubicFormSpec(k=rng.normal(size=(1, 1, 4, 4, 4)))
        verdict, _ = nullform.check_null_quasilinear(q)
        worst = nullform.cone_sample_oracle(q, 100, rng=np.random.default_rng(seed))
        assert verdict == (worst < 1e-10)

    def test_exact_arithmetic_verdict(self):
        k = np.zeros((1, 1, 4, 4, 4), dtype=object)
        k[:] = Fraction(0)
        diag = [Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1)]
        for j in range(4):
            k[0, 0, j, j, 0] += diag[j]
        verdict, dec = nullform.check_null_quasilinear(nullform.CubicFormSpec(k=k))
        assert verdict
        assert dec.residual == 0.0

    @pytest.mark.parametrize("exact", [True, False])
    def test_quadric_basis_is_orthogonal_with_squared_norm_four(self, exact):
        # the classifier's coefficients are basis @ vec / 4 because of this
        basis = nullform._quadric_times_xi_basis(nullform._sym_cubic_monomials(), exact)
        assert np.array_equal(basis @ basis.T, 4 * np.eye(4))


class TestConeOracle:
    def test_q0_vanishes_on_cone(self):
        assert nullform.cone_sample_oracle(nullform.q0_spec(), 200) < 1e-14

    def test_dt_squared_is_order_one_on_cone(self):
        s = np.zeros((1, 1, 1, 4, 4))
        s[0, 0, 0, 0, 0] = 1.0
        worst = nullform.cone_sample_oracle(nullform.QuadraticFormSpec(s=s), 50)
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            nullform.cone_sample_oracle(nullform.q0_spec(), 0)


class TestTransformedCoefficients:
    @staticmethod
    def _direct_q0(ev, u_fn, v_fn, h=1e-5):
        """Chain-rule-free oracle: finite differences straight in (t, r)."""

        def mink(fn):
            def wrapped(t, r):
                res = geometry.to_einstein(geometry.MinkowskiEvent(t=t, r=r))
                return res.omega_factor * fn(res.einstein.T, res.einstein.R)

            return wrapped

        U, V = mink(u_fn), mink(v_fn)
        mk = geometry.to_minkowski(ev)
        t, r = mk.t, mk.r
        u_t = (U(t + h, r) - U(t - h, r)) / (2 * h)
        u_r = (U(t, r + h) - U(t, r - h)) / (2 * h)
        v_t = (V(t + h, r) - V(t - h, r)) / (2 * h)
        v_r = (V(t, r + h) - V(t, r - h)) / (2 * h)
        om = geometry.omega_factor(t, r)
        return (u_t * v_t - u_r * v_r) / om**3

    def test_bilinear_form_matches_direct_computation(self):
        rng = np.random.default_rng(2)
        u_fn = lambda T, R: math.cos(T) * math.cos(2 * R)
        v_fn = lambda T, R: math.sin(T) + 0.3 * math.cos(R)
        h = 1e-5
        for _ in range(10):
            T = rng.uniform(0.2, 1.8)
            R = rng.uniform(0.3, 1.2)
            ev = geometry.EinsteinEvent(T=T, R=R)
            co = nullform.transformed_q0_coefficients(ev)
            du = np.array([
                (u_fn(T + h, R) - u_fn(T - h, R)) / (2 * h),
                (u_fn(T, R + h) - u_fn(T, R - h)) / (2 * h),
            ])
            dv = np.array([
                (v_fn(T + h, R) - v_fn(T - h, R)) / (2 * h),
                (v_fn(T, R + h) - v_fn(T, R - h)) / (2 * h),
            ])
            u, v = u_fn(T, R), v_fn(T, R)
            bilinear = (
                du @ co.a @ dv + (co.b1 @ du) * v + (co.b2 @ dv) * u + co.c * u * v
            )
            direct = self._direct_q0(ev, u_fn, v_fn, h=h)
            assert bilinear == pytest.approx(direct, rel=2e-4, abs=1e-8)

    def test_gradient_block_is_lorentzian_at_time_symmetry(self):
        # at T = 0 the map is time-symmetric, so the gradient block stays diagonal
        co = nullform.transformed_q0_coefficients(geometry.EinsteinEvent(T=0.0, R=0.8))
        assert abs(co.a[0, 1]) < 1e-14 and abs(co.a[1, 0]) < 1e-14
        assert co.a[0, 0] == pytest.approx(-co.a[1, 1], rel=1e-12)
        assert co.a[0, 0] > 0

    def test_rejects_events_without_finite_radius(self):
        with pytest.raises(DomainError):
            nullform.transformed_q0_coefficients(
                geometry.EinsteinEvent(T=math.pi - 0.05, R=3.0)
            )
