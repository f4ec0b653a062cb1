"""Algebraic classification of quadratic nonlinearities against the null condition.

A quadratic (semilinear) nonlinearity is described by a coefficient tensor
s[I, J, K, j, k] acting on d_j u^J d_k u^K; a cubic (quasilinear) one by
k[I, J, i, j, k] acting on d_i u^J d_j d_k u^I.  The null condition asks that
the associated symbol vanish on the light cone xi_0^2 = xi_1^2 + xi_2^2 + xi_3^2.

For quadratics, the vanishing-on-cone space is exactly the span of the basic
forms: the symmetric part of each slice must be a multiple of the Minkowski
quadric diag(1, -1, -1, -1) (the q0 form), while any antisymmetric part is a
combination of the rotation/boost forms q_ij and is automatically null.  For
cubics, the fully symmetrized symbol must lie in the span of quadric * xi_m,
m = 0..3.  Classification is closed-form linear algebra; random sampling on
the cone is kept only as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .errors import DomainError
from . import geometry

__all__ = [
    "QuadraticFormSpec",
    "CubicFormSpec",
    "NullDecomposition",
    "BilinearCoeffs",
    "check_null_semilinear",
    "check_null_quasilinear",
    "cone_sample_oracle",
    "cone_witness",
    "transformed_q0_coefficients",
    "q0_spec",
    "qij_spec",
]

#: Minkowski quadric coefficients diag(1, -1, -1, -1).
_QUADRIC = np.diag([1.0, -1.0, -1.0, -1.0])

VERDICT_TOL = 1e-10


@dataclass(frozen=True)
class QuadraticFormSpec:
    """Coefficient tensor s[I, J, K, j, k] of a semilinear quadratic form."""

    s: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.s)
        if arr.ndim != 5 or arr.shape[3:] != (4, 4):
            raise DomainError(f"expected shape (N, N, N, 4, 4), got {arr.shape}")
        if not (arr.shape[0] == arr.shape[1] == arr.shape[2]):
            raise DomainError(f"component axes must agree, got {arr.shape}")
        if arr.dtype != object and not np.all(np.isfinite(arr.astype(float))):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "s", arr)

    @property
    def n_components(self) -> int:
        return self.s.shape[0]

    @property
    def is_exact(self) -> bool:
        """True when every entry is an int or Fraction (exact arithmetic path)."""
        return self.s.dtype == object and all(
            isinstance(v, (int, Fraction)) for v in self.s.flat
        )


@dataclass(frozen=True)
class CubicFormSpec:
    """Coefficient tensor k[I, J, i, j, k] of a quasilinear cubic form.

    The trailing (j, k) pair acts on d_j d_k u^I and is canonicalized to be
    symmetric on construction.
    """

    k: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.k)
        if arr.ndim != 5 or arr.shape[2:] != (4, 4, 4):
            raise DomainError(f"expected shape (N, N, 4, 4, 4), got {arr.shape}")
        if arr.shape[0] != arr.shape[1]:
            raise DomainError(f"component axes must agree, got {arr.shape}")
        if arr.dtype == object:
            arr = (arr + arr.transpose(0, 1, 2, 4, 3)) / Fraction(2)
        else:
            if not np.all(np.isfinite(arr)):
                raise DomainError("coefficients must be finite")
            arr = 0.5 * (arr + arr.transpose(0, 1, 2, 4, 3))
        object.__setattr__(self, "k", arr)

    @property
    def n_components(self) -> int:
        return self.k.shape[0]

    @property
    def is_exact(self) -> bool:
        return self.k.dtype == object and all(
            isinstance(v, (int, Fraction)) for v in self.k.flat
        )


@dataclass(frozen=True)
class NullDecomposition:
    """Decomposition of a form into basic null pieces plus a defect.

    ``lam`` holds the q0 coefficient per slice; ``antisym`` the antisymmetric
    q_ij coefficients; ``linear_factor`` (cubic only) the linear form ell(xi)
    multiplying the quadric; ``trivially_null`` (cubic only) the part of the
    tensor whose fully symmetrized symbol is identically zero.  ``residual``
    is the norm of what is left after subtracting the null pieces, and ``tol``
    the bound on it that the verdict applies: ``tol`` times the tensor scale for
    a float form, 0 for an exact one (null only when its defect is exactly zero).
    """

    lam: np.ndarray
    antisym: np.ndarray | None
    residual: float
    tol: float
    linear_factor: np.ndarray | None = None
    trivially_null: np.ndarray | None = None


def _frobenius(arr) -> float:
    flat = np.asarray(arr).astype(float).ravel()
    return float(np.sqrt(np.dot(flat, flat)))


def check_null_semilinear(
    q: QuadraticFormSpec, tol: float = VERDICT_TOL
) -> tuple[bool, NullDecomposition]:
    """Classify a quadratic form slice by slice.

    Each (I, J, K) slice is split into its symmetric and antisymmetric parts
    in (j, k).  The slice is null iff the symmetric part is lam * quadric;
    the antisymmetric part is always null.  The residual is the Frobenius
    norm of the symmetric part minus its best quadric fit, maximized over
    slices; the verdict applies ``tol`` relative to the tensor scale.
    """
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
        defect = sym - lam_i * (np.diag([1, -1, -1, -1]) if exact else _QUADRIC)
        if exact:
            if any(v != 0 for v in defect.flat):
                exact_zero = False
        residual = max(residual, _frobenius(defect))
    bound = 0.0 if exact else tol * max(1.0, _frobenius(s))
    verdict = exact_zero if exact else residual < bound
    return verdict, NullDecomposition(lam=lam, antisym=antisym, residual=residual, tol=bound)


def _sym_cubic_monomials():
    return list(combinations_with_replacement(range(4), 3))


def _symmetrize_cubic(m: np.ndarray):
    """Fully symmetric part of a (4,4,4) tensor (average over the 6 orderings)."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    if m.dtype == object:
        return sum(m.transpose(p) for p in perms) / Fraction(6)
    return sum(m.transpose(p) for p in perms) / 6.0


def _cubic_to_monomial_vector(sym: np.ndarray, monomials) -> np.ndarray:
    """Coefficients of the symmetric cubic polynomial in the 20 monomials xi^a."""
    out = np.empty(len(monomials), dtype=sym.dtype)
    for pos, (i, j, k) in enumerate(monomials):
        # multiplicity of the monomial among the 64 ordered index triples
        mult = len({(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)})
        out[pos] = sym[i, j, k] * mult
    return out


def _quadric_times_xi_basis(monomials, exact: bool) -> np.ndarray:
    """Monomial vectors of (xi_0^2 - xi_1^2 - xi_2^2 - xi_3^2) * xi_m, m = 0..3."""
    diag = [1, -1, -1, -1]
    basis = np.zeros((4, len(monomials)), dtype=object if exact else float)
    index = {mon: pos for pos, mon in enumerate(monomials)}
    for m in range(4):
        for j in range(4):
            mon = tuple(sorted((j, j, m)))
            basis[m, index[mon]] += diag[j]
    return basis


def check_null_quasilinear(
    q: CubicFormSpec, tol: float = VERDICT_TOL
) -> tuple[bool, NullDecomposition]:
    """Classify a cubic form slice by slice.

    For each (I, J) slice the symbol P(xi) = sum k[i,j,k] xi_i xi_j xi_k is
    fully symmetrized and tested for membership in the span of
    {quadric * xi_m : m = 0..3} by projecting onto it: the four monomial
    vectors are orthogonal with squared norm 4 (Gram matrix 4 I), so the
    least-squares coefficients are basis @ vec / 4.  The part of the slice
    that symmetrizes to zero (the q_ij-type combinations whose symbols vanish
    identically) is reported separately in ``trivially_null`` and never
    affects the verdict.
    """
    k = q.k
    n = q.n_components
    exact = q.is_exact
    monomials = _sym_cubic_monomials()
    basis = _quadric_times_xi_basis(monomials, exact)
    quarter = Fraction(1, 4) if exact else 0.25
    lin = np.zeros((n, n, 4), dtype=object if exact else float)
    trivially_null = np.zeros_like(k)
    residual = 0.0
    exact_zero = True
    for idx in np.ndindex(n, n):
        sym = _symmetrize_cubic(k[idx])
        trivially_null[idx] = k[idx] - sym
        vec = _cubic_to_monomial_vector(sym, monomials)
        lin[idx] = basis @ vec * quarter
        defect = vec - basis.T @ lin[idx]
        if exact and any(v != 0 for v in defect.flat):
            exact_zero = False
        residual = max(residual, _frobenius(defect))
    bound = 0.0 if exact else tol * max(1.0, _frobenius(k))
    verdict = exact_zero if exact else residual < bound
    return verdict, NullDecomposition(
        lam=np.zeros((n, n)),  # no q0 coefficient at the cubic level
        antisym=None,
        residual=residual,
        tol=bound,
        linear_factor=lin,
        trivially_null=trivially_null,
    )


def cone_sample_oracle(
    q: QuadraticFormSpec | CubicFormSpec, n: int, rng: np.random.Generator | None = None
) -> float:
    """Brute-force check: max |symbol| over n random light-cone directions.

    Samples xi = (+-1, omega) with omega uniform on the unit sphere and
    evaluates the (symmetrized) per-slice symbol; returns the max absolute
    value seen.  Independent of the algebraic classifier.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got {n}")
    rng = rng if rng is not None else np.random.default_rng(0)
    worst = 0.0
    for _ in range(n):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        xi = np.empty(4)
        xi[0] = rng.choice([-1.0, 1.0])
        xi[1:] = w
        worst = max(worst, _cone_symbol(q, xi))
    return worst


def _cone_symbol(q: QuadraticFormSpec | CubicFormSpec, xi: np.ndarray) -> float:
    """max |symbol| over the slices of ``q`` at the covector ``xi``."""
    if isinstance(q, QuadraticFormSpec):
        return float(np.max(np.abs(np.einsum("...jk,j,k->...", q.s.astype(float), xi, xi))))
    return float(np.max(np.abs(np.einsum("...ijk,i,j,k->...", q.k.astype(float), xi, xi, xi))))


_WITNESS_CANDIDATES = [
    np.array([s, *w])
    for s in (1.0, -1.0)
    for w in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
              (0.6, 0.8, 0.0), (0.0, 0.6, 0.8))
]


def cone_witness(form: QuadraticFormSpec | CubicFormSpec) -> tuple[np.ndarray, float]:
    """A light-cone direction where the symbol is largest (deterministic)."""
    values = [_cone_symbol(form, xi) for xi in _WITNESS_CANDIDATES]
    return _WITNESS_CANDIDATES[int(np.argmax(values))], max(values)


def q0_spec(n_components: int = 1, exact: bool = False) -> QuadraticFormSpec:
    """The basic form q0 = d_t u d_t v - grad u . grad v on the (1,1,1) slice."""
    s = np.zeros((n_components,) * 3 + (4, 4), dtype=object if exact else float)
    one = Fraction(1) if exact else 1.0
    s[0, 0, 0] = np.diag([one, -one, -one, -one])
    return QuadraticFormSpec(s=s)


def qij_spec(i: int, j: int, n_components: int = 1, exact: bool = False) -> QuadraticFormSpec:
    """The rotation form q_ij = d_i u d_j v - d_j u d_i v on the (1,1,1) slice."""
    if not (0 <= i <= 3 and 0 <= j <= 3 and i != j):
        raise DomainError(f"need distinct indices in 0..3, got ({i}, {j})")
    s = np.zeros((n_components,) * 3 + (4, 4), dtype=object if exact else float)
    one = Fraction(1) if exact else 1.0
    s[0, 0, 0, i, j] = one
    s[0, 0, 0, j, i] = -one
    return QuadraticFormSpec(s=s)


@dataclass(frozen=True)
class BilinearCoeffs:
    """Radial bilinear form on the cylinder: gradient block, lower-order terms.

    Represents a(u_T v_T, u_T v_R; u_R v_T, u_R v_R) + b1 . (du) v + b2 . (dv) u + c u v.
    """

    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c: float


def transformed_q0_coefficients(ev: geometry.EinsteinEvent) -> BilinearCoeffs:
    """Coefficients of the pushforward of q0 through the compactifying map.

    For cylinder functions u, v the bilinear form

        Q(u, du; v, dv) = Omega^{-3} q0(d(Omega u~), d(Omega v~))

    (tilde denoting the Minkowski pullback) is assembled by the chain rule
    from the analytic Jacobian and Omega gradient of the frame at the
    Minkowski preimage.  Raises DomainError outside the diamond, the
    finite-radius region.
    """
    mk = geometry.to_minkowski(ev)
    fr = geometry.frame_at(mk)
    (t_T, t_R), (r_T, r_R) = fr.jac[0], fr.jac[1]
    # rows of jac are pushforwards: d_t -> t_T d_T + t_R d_R, d_r likewise
    om = geometry.omega_factor(mk.t, mk.r)
    om_t, om_r = fr.omega_grad
    grad_u_t = np.array([t_T, t_R])   # (d_T, d_R) coefficients of d_t acting on u
    grad_u_r = np.array([r_T, r_R])
    a = (np.outer(grad_u_t, grad_u_t) - np.outer(grad_u_r, grad_u_r)) / om
    b = (om_t * grad_u_t - om_r * grad_u_r) / om ** 2
    c = (om_t ** 2 - om_r ** 2) / om ** 3
    return BilinearCoeffs(a=a, b1=b.copy(), b2=b.copy(), c=float(c))
