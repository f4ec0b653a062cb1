"""Algebraic null-condition classifier and pushforward-coefficient tests."""

import itertools
import math
import re
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
        basis = nullform._QUADRIC_XI.astype(object if exact else float)
        assert np.array_equal(basis @ basis.T, 4 * np.eye(4))


def _reference_frobenius(arr) -> float:
    flat = np.asarray(arr).astype(float).ravel()
    return float(np.sqrt(np.dot(flat, flat)))


def reference_semilinear(q, tol=nullform.VERDICT_TOL):
    """The slice-by-slice quadratic classifier: the reference for the array pass."""
    s = q.s
    n = q.n_components
    exact = q.is_exact
    half = Fraction(1, 2) if exact else 0.5
    quarter = Fraction(1, 4) if exact else 0.25
    lam = np.zeros((n, n, n), dtype=object if exact else float)
    antisym = np.zeros_like(s)
    residual = 0.0
    exact_zero = True
    for idx in np.ndindex(n, n, n):
        m = s[idx]
        sym = (m + m.T) * half
        antisym[idx] = (m - m.T) * half
        lam_i = (sym[0, 0] - sym[1, 1] - sym[2, 2] - sym[3, 3]) * quarter
        lam[idx] = lam_i
        defect = sym - lam_i * (np.diag([1, -1, -1, -1]) if exact
                                else np.diag([1.0, -1.0, -1.0, -1.0]))
        if exact:
            if any(v != 0 for v in defect.flat):
                exact_zero = False
        residual = max(residual, _reference_frobenius(defect))
    bound = 0.0 if exact else tol * max(1.0, _reference_frobenius(s))
    verdict = exact_zero if exact else residual < bound
    return verdict, nullform.NullDecomposition(lam=lam, antisym=antisym, residual=residual,
                                               tol=bound)


def reference_quasilinear(q, tol=nullform.VERDICT_TOL):
    """The slice-by-slice cubic classifier: the reference for the array pass."""
    k = q.k
    n = q.n_components
    exact = q.is_exact
    monomials = list(itertools.combinations_with_replacement(range(4), 3))
    basis = np.zeros((4, len(monomials)), dtype=object if exact else float)
    index = {mon: pos for pos, mon in enumerate(monomials)}
    for m in range(4):
        for j in range(4):
            basis[m, index[tuple(sorted((j, j, m)))]] += [1, -1, -1, -1][j]
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    quarter = Fraction(1, 4) if exact else 0.25
    lin = np.zeros((n, n, 4), dtype=object if exact else float)
    trivially_null = np.zeros_like(k)
    residual = 0.0
    exact_zero = True
    for idx in np.ndindex(n, n):
        total = sum(k[idx].transpose(p) for p in perms)
        sym = total / Fraction(6) if k.dtype == object else total / 6.0
        trivially_null[idx] = k[idx] - sym
        vec = np.empty(len(monomials), dtype=sym.dtype)
        for pos, (i, j, l) in enumerate(monomials):
            vec[pos] = sym[i, j, l] * len(set(itertools.permutations((i, j, l))))
        lin[idx] = basis @ vec * quarter
        defect = vec - basis.T @ lin[idx]
        if exact and any(v != 0 for v in defect.flat):
            exact_zero = False
        residual = max(residual, _reference_frobenius(defect))
    bound = 0.0 if exact else tol * max(1.0, _reference_frobenius(k))
    verdict = exact_zero if exact else residual < bound
    return verdict, nullform.NullDecomposition(
        lam=np.zeros((n, n)), antisym=None, residual=residual, tol=bound,
        linear_factor=lin, trivially_null=trivially_null)


def _identical(a, b) -> bool:
    """Same shape and dtype, and per entry the same type and value (nan equal to nan)."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and all(
        type(u) is type(v) and (u == v or (u != u and v != v)) for u, v in zip(a.flat, b.flat))


def _seeded_form(seed: int, kind: str, exact: bool, null: bool):
    """A random form of 1-3 components: quadric part plus a null remainder, and a defect
    when not ``null``; exact entries are Fractions with denominators up to 10**6."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    shape = (n,) * (3 if kind == "quadratic" else 2) + (4,) * (2 if kind == "quadratic" else 3)

    def draw(size):
        if not exact:
            return rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)
        num, den = rng.integers(-10**6, 10**6, size=size), rng.integers(1, 10**6, size=size)
        return np.array([Fraction(int(a), int(b)) for a, b in zip(num.flat, den.flat)],
                        dtype=object).reshape(size)

    if kind == "quadratic":
        a = draw(shape)
        t = a - a.swapaxes(-1, -2) + draw(shape[:3])[..., None, None] * np.diag([1, -1, -1, -1])
    else:  # quadric * ell(xi) plus a part antisymmetric in (i, j), whose symbol vanishes
        b = draw(shape)
        t = b - b.swapaxes(2, 3)
        ell = draw(shape[:2] + (4,))
        for j, d in enumerate((1, -1, -1, -1)):
            t[..., j, j, :] += d * ell
    if not null:
        t[(0,) * (len(shape) - 2) + (1, 1)] += draw(())
    return nullform.QuadraticFormSpec(s=t) if kind == "quadratic" else nullform.CubicFormSpec(k=t)


def _extreme_forms():
    """Floats at both ends of the range, object arrays holding floats, special shapes."""
    rng = np.random.default_rng(17)
    scales = (5e-324, 1e-310, 1e307)
    quadratics = [4e307 * nullform.q0_spec().s, 1e-320 * nullform.q0_spec().s,
                  np.diag([4e307, -4e307, -4e307, 3e307])[None, None, None],
                  rng.normal(size=(2, 2, 2, 4, 4)).astype(object), np.zeros((0, 0, 0, 4, 4)),
                  np.array(rng.integers(-9, 9, (1, 1, 1, 4, 4)).tolist(), dtype=object)]
    quadratics += [scale * rng.uniform(-1, 1, size=(2, 2, 2, 4, 4)) for scale in scales]
    cubics = [scale * rng.uniform(-1, 1, size=(2, 2, 4, 4, 4)) for scale in scales]
    cubics += [rng.normal(size=(1, 1, 4, 4, 4)).astype(object), np.zeros((0, 0, 4, 4, 4)),
               np.array(rng.integers(-9, 9, (1, 1, 4, 4, 4)).tolist(), dtype=object)]
    return ([nullform.QuadraticFormSpec(s=s) for s in quadratics]
            + [nullform.CubicFormSpec(k=k) for k in cubics])


class TestArrayPassMatchesSliceLoop:
    """The one-pass classifiers return what the slice-by-slice reference returns: the
    verdict, every field with its dtype and entry types (Fractions for an exact form),
    residual and tol."""

    @staticmethod
    def assert_same(form):
        if isinstance(form, nullform.QuadraticFormSpec):
            got, want = nullform.check_null_semilinear(form), reference_semilinear(form)
        else:
            got, want = nullform.check_null_quasilinear(form), reference_quasilinear(form)
        (verdict, dec), (ref_verdict, ref) = got, want
        assert verdict == ref_verdict
        for name in ("residual", "tol"):
            value, ref_value = getattr(dec, name), getattr(ref, name)
            assert type(value) is type(ref_value) is float
            assert value == ref_value or (value != value and ref_value != ref_value)
        for name in ("lam", "antisym", "linear_factor", "trivially_null"):
            assert _identical(getattr(dec, name), getattr(ref, name)), name
        return verdict

    @pytest.mark.parametrize("kind", ["quadratic", "cubic"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_seeded_forms(self, kind, exact):
        for seed in range(40):
            null = seed % 2 == 0
            assert self.assert_same(_seeded_form(seed, kind, exact, null)) == null

    def test_basic_forms(self):
        for exact in (True, False):
            for n in (1, 2):
                self.assert_same(nullform.q0_spec(n, exact=exact))
                for i, j in itertools.permutations(range(4), 2):
                    self.assert_same(nullform.qij_spec(i, j, n, exact=exact))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_extreme_and_odd_inputs(self):
        for form in _extreme_forms():
            self.assert_same(form)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_huge_null_form_keeps_its_finite_lambda(self):
        # halved at the step the formula halves: 4e307 * q0 has lam 4e307, not the inf
        # that summing the unhalved diagonal (8e307 each) would overflow to
        q = nullform.QuadraticFormSpec(s=4e307 * nullform.q0_spec().s)
        assert nullform.check_null_semilinear(q)[1].lam[0, 0, 0] == 4e307


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


class TestOverflowAndNonFiniteInputs:
    """A form the classifier cannot read a verdict from is a DomainError (exit 3 in
    check-null), not a null verdict with residual 0."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # and says nothing else
    def test_float_form_whose_arithmetic_overflows_to_nan(self):
        s = np.zeros((1, 1, 1, 4, 4))
        s[0, 0, 0, 0, 0], s[0, 0, 0, 1, 2] = 1e308, 1.0  # 2e308 overflows in sym, then inf - inf
        with pytest.raises(DomainError, match="residual is NaN"):
            nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        k = np.zeros((1, 1, 4, 4, 4))
        k[0, 0, 0, 0, 0], k[0, 0, 1, 2, 3] = 1e308, 1.0
        with pytest.raises(DomainError, match="residual is NaN"):
            nullform.check_null_quasilinear(nullform.CubicFormSpec(k=k))

    @pytest.mark.parametrize("value", [math.nan, math.inf, np.float64(-np.inf)])
    def test_object_tensor_with_a_non_finite_entry(self, value):
        s = np.zeros((1, 1, 1, 4, 4), dtype=object)
        s[...] = Fraction(0)
        s[0, 0, 0, 1, 1] = value
        with pytest.raises(DomainError, match="coefficients must be finite"):
            nullform.QuadraticFormSpec(s=s)
        k = np.zeros((1, 1, 4, 4, 4), dtype=object)
        k[...] = 0
        k[0, 0, 2, 1, 1] = value
        with pytest.raises(DomainError, match="coefficients must be finite"):
            nullform.CubicFormSpec(k=k)

    def test_object_tensor_of_huge_exact_entries_stays_exact(self):
        # ints and Fractions beyond float range are finite: no float conversion to check them
        s = nullform.q0_spec(exact=True).s * 10 ** 400
        verdict, dec = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        assert verdict and dec.lam[0, 0, 0] == 10 ** 400
        s[0, 0, 0, 1, 1] *= 2  # its defect passes the float range: residual inf, non-null
        verdict, dec = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
        assert not verdict and dec.residual == math.inf
        assert nullform.cone_witness(nullform.QuadraticFormSpec(s=s))[1] == math.inf


class TestTransformedCoefficients:
    @staticmethod
    def _direct_q0(T, R, u_fn, v_fn, h=1e-5):
        """Chain-rule-free oracle: finite differences straight in (t, r)."""

        def mink(fn):
            return lambda t, r: geometry.omega_minkowski(t, r) * fn(*geometry.einstein_coords(t, r))

        U, V = mink(u_fn), mink(v_fn)
        t, r = geometry.minkowski_coords(T, R)
        u_t = (U(t + h, r) - U(t - h, r)) / (2 * h)
        u_r = (U(t, r + h) - U(t, r - h)) / (2 * h)
        v_t = (V(t + h, r) - V(t - h, r)) / (2 * h)
        v_r = (V(t, r + h) - V(t, r - h)) / (2 * h)
        return (u_t * v_t - u_r * v_r) / geometry.omega_minkowski(t, r) ** 3

    def test_bilinear_form_matches_direct_computation(self):
        T, R = np.random.default_rng(2).uniform([0.2, 0.3], [1.8, 1.2], size=(10, 2)).T
        u_fn = lambda T, R: np.cos(T) * np.cos(2 * R)
        v_fn = lambda T, R: np.sin(T) + 0.3 * np.cos(R)
        h = 1e-5
        co = nullform.transformed_q0_coefficients(T, R)
        assert co.a.shape == (10, 2, 2) and co.b1.shape == co.b2.shape == (10, 2)
        du = np.stack([(u_fn(T + h, R) - u_fn(T - h, R)) / (2 * h),
                       (u_fn(T, R + h) - u_fn(T, R - h)) / (2 * h)], axis=-1)
        dv = np.stack([(v_fn(T + h, R) - v_fn(T - h, R)) / (2 * h),
                       (v_fn(T, R + h) - v_fn(T, R - h)) / (2 * h)], axis=-1)
        u, v = u_fn(T, R), v_fn(T, R)
        bilinear = (np.einsum("ni,nij,nj->n", du, co.a, dv) + np.sum(co.b1 * du, -1) * v
                    + np.sum(co.b2 * dv, -1) * u + co.c * u * v)
        direct = self._direct_q0(T, R, u_fn, v_fn, h=h)
        assert np.allclose(bilinear, direct, rtol=2e-4, atol=1e-8)

    def test_omega_gradient_matches_finite_differences(self):
        # b and c carry (d_t Omega, d_r Omega); rebuild them from a centered-difference
        # gradient of the rational closed form
        h = 1e-6
        t, r = np.array([1.7, 0.4, 6.0]), np.array([0.9, 2.2, 3.5])
        co = nullform.transformed_q0_coefficients(*geometry.einstein_coords(t, r))
        om = geometry.omega_minkowski(t, r)
        g_t = (geometry.omega_minkowski(t + h, r) - geometry.omega_minkowski(t - h, r)) / (2 * h)
        g_r = (geometry.omega_minkowski(t, r + h) - geometry.omega_minkowski(t, r - h)) / (2 * h)
        p, q = geometry.frame_terms(t, r)
        grad_t, grad_r = np.stack([p + q, p - q], -1), np.stack([p - q, p + q], -1)
        b = (g_t[:, None] * grad_t - g_r[:, None] * grad_r) / om[:, None] ** 2
        assert np.allclose(co.b1, b, rtol=1e-6, atol=0) and np.array_equal(co.b1, co.b2)
        assert np.allclose(co.c, (g_t ** 2 - g_r ** 2) / om ** 3, rtol=1e-6, atol=0)

    def test_gradient_block_is_lorentzian_at_time_symmetry(self):
        # at T = 0 the map is time-symmetric, so the gradient block stays diagonal
        co = nullform.transformed_q0_coefficients(0.0, 0.8)
        assert co.a.shape == (2, 2) and co.b1.shape == (2,) and co.c.shape == ()
        assert abs(co.a[0, 1]) < 1e-14 and abs(co.a[1, 0]) < 1e-14
        assert co.a[0, 0] == pytest.approx(-co.a[1, 1], rel=1e-12)
        assert co.a[0, 0] > 0

    def test_coefficients_broadcast_over_the_points(self):
        T, R = np.linspace(0.1, 1.0, 12).reshape(3, 4), 0.5
        co = nullform.transformed_q0_coefficients(T, R)
        assert co.a.shape == (3, 4, 2, 2) and co.b1.shape == (3, 4, 2) and co.c.shape == (3, 4)
        one = nullform.transformed_q0_coefficients(T[1, 2], R)
        for name in ("a", "b1", "b2", "c"):
            assert np.allclose(getattr(co, name)[1, 2], getattr(one, name), rtol=1e-14, atol=0)

    def test_rejects_events_without_finite_radius(self):
        with pytest.raises(DomainError, match=re.escape(
                f"event (T={math.pi - 0.05}, R=3.0) lies on or beyond null infinity")):
            nullform.transformed_q0_coefficients(np.array([0.5, math.pi - 0.05]), [1.0, 3.0])
