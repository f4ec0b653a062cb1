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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

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
_QUADRIC = np.diag([1, -1, -1, -1])

#: The 20 cubic monomials xi_i xi_j xi_k (i <= j <= k) as index arrays (i, j, k), how
#: many of the 64 ordered index triples give each, and the monomial vectors of
#: (xi_0^2 - xi_1^2 - xi_2^2 - xi_3^2) * xi_m, m = 0..3.
_MONOMIALS = tuple(np.array(list(combinations_with_replacement(range(4), 3))).T)
_MULTIPLICITY = np.array([len(set(permutations(mon))) for mon in zip(*_MONOMIALS)])
_QUADRIC_XI = np.array([[sum(_QUADRIC[j, j] for j in range(4) if sorted((j, j, m)) == list(mon))
                         for mon in zip(*_MONOMIALS)] for m in range(4)])

VERDICT_TOL = 1e-10


def _is_exact(arr: np.ndarray) -> bool:
    """True when every entry is an int or Fraction (exact arithmetic path)."""
    return arr.dtype == object and all(isinstance(v, (int, Fraction)) for v in arr.flat)


def _check_finite(arr: np.ndarray) -> None:
    """Raise DomainError unless every coefficient is finite; ints and Fractions are."""
    if arr.dtype == object:
        arr = np.array([v for v in arr.flat if not isinstance(v, (int, Fraction))], float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("coefficients must be finite")


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
        _check_finite(arr)
        object.__setattr__(self, "s", arr)

    @property
    def n_components(self) -> int:
        return self.s.shape[0]

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.s)


@dataclass(frozen=True)
class CubicFormSpec:
    """Coefficient tensor k[I, J, i, j, k] of a quasilinear cubic form.

    The trailing (j, k) pair acts on d_j d_k u^I and is canonicalized to be
    symmetric on construction.
    """

    k: np.ndarray

    @np.errstate(over="ignore")  # an entry that overflows here makes the classifier's NaN
    def __post_init__(self):
        arr = np.asarray(self.k)
        if arr.ndim != 5 or arr.shape[2:] != (4, 4, 4):
            raise DomainError(f"expected shape (N, N, 4, 4, 4), got {arr.shape}")
        if arr.shape[0] != arr.shape[1]:
            raise DomainError(f"component axes must agree, got {arr.shape}")
        _check_finite(arr)
        if arr.dtype == object:
            arr = (arr + arr.transpose(0, 1, 2, 4, 3)) / Fraction(2)
        else:
            arr = 0.5 * (arr + arr.transpose(0, 1, 2, 4, 3))
        object.__setattr__(self, "k", arr)

    @property
    def n_components(self) -> int:
        return self.k.shape[0]

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.k)


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


def _scaled(arr: np.ndarray, exact: bool, factor: int) -> tuple[np.ndarray, int]:
    """The tensor the classifiers compute on, and its scale.

    An exact tensor becomes Python ints over ``factor`` times the least common
    multiple of its denominators, a scale at which every quotient the classifier
    takes is whole; a float tensor is used as it is, at scale 1.
    """
    if not exact:
        return arr, 1
    values = arr.ravel().tolist()
    scale = factor * math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    return np.array(ints, dtype=object).reshape(arr.shape), scale


def _div(x, d: int, exact: bool):
    """x / d: a whole quotient on scaled ints, true division on floats (exact for d = 2
    and 4 away from underflow), taken at the step where the formula divides."""
    return x // d if exact else x / float(d)


def _fractions(ints: np.ndarray, scale: int) -> np.ndarray:
    return np.array([Fraction(v, scale) for v in ints.flat], dtype=object).reshape(ints.shape)


def _quotient(n: int, d: int) -> float:
    """n / d for ints, d > 0, rounded as ``float(Fraction(n, d))``; a quotient past the
    float range reads as +-inf instead of raising OverflowError."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _verdict(tensor, defect: np.ndarray, scale: int, exact: bool, tol: float):
    """(verdict, residual, bound) of the per-slice defects, the rows of ``defect``.

    The residual is the largest ``_frobenius`` of a row; an exact defect is read
    as floats by ``_quotient``, so a row past the float range reads inf.  An exact
    form is null only when its defect is exactly zero.  Raises DomainError when a
    row's residual is NaN: a float form so large that its arithmetic overflowed to
    inf - inf, which no verdict can be read from.
    """
    rows = np.array([_quotient(v, scale) for v in defect.flat], dtype=float) if exact else defect
    residual = float(np.max([_frobenius(row) for row in rows.reshape(defect.shape)],
                            initial=0.0))
    if math.isnan(residual):
        raise DomainError("the classifier's arithmetic overflowed: the residual is NaN")
    if exact:
        return not any(defect.flat), residual, 0.0
    bound = tol * max(1.0, _frobenius(tensor))
    return residual < bound, residual, bound


@np.errstate(over="ignore", invalid="ignore")  # an overflow to NaN is the DomainError
def check_null_semilinear(
    q: QuadraticFormSpec, tol: float = VERDICT_TOL
) -> tuple[bool, NullDecomposition]:
    """Classify a quadratic form, all (I, J, K) slices in one array pass.

    Each slice is split into its symmetric and antisymmetric parts in (j, k).
    The slice is null iff the symmetric part is lam * quadric; the antisymmetric
    part is always null.  The residual is the Frobenius norm of the symmetric
    part minus its best quadric fit, maximized over slices; the verdict applies
    ``tol`` relative to the tensor scale.  An exact form is classified on
    integers over a common denominator and returns its ``lam`` and ``antisym``
    as Fractions.
    """
    exact = q.is_exact
    x, scale = _scaled(q.s, exact, 4)  # 4: the halving, then lam's quarter
    xt = x.swapaxes(-1, -2)
    sym = _div(x + xt, 2, exact)
    antisym = _div(x - xt, 2, exact)
    lam = _div(sym[..., 0, 0] - sym[..., 1, 1] - sym[..., 2, 2] - sym[..., 3, 3], 4, exact)
    defect = sym - lam[..., None, None] * _QUADRIC.astype(x.dtype)
    verdict, residual, bound = _verdict(q.s, defect.reshape(-1, 16), scale, exact, tol)
    if exact:
        lam, antisym = _fractions(lam, scale), _fractions(antisym, scale)
    return verdict, NullDecomposition(lam=lam if exact else lam.astype(float),
                                      antisym=antisym, residual=residual, tol=bound)


@np.errstate(over="ignore", invalid="ignore")  # an overflow to NaN is the DomainError
def check_null_quasilinear(
    q: CubicFormSpec, tol: float = VERDICT_TOL
) -> tuple[bool, NullDecomposition]:
    """Classify a cubic form, all (I, J) slices in one array pass.

    For each (I, J) slice the symbol P(xi) = sum k[i,j,k] xi_i xi_j xi_k is
    fully symmetrized and tested for membership in the span of
    {quadric * xi_m : m = 0..3} by projecting onto it: the four monomial
    vectors are orthogonal with squared norm 4 (Gram matrix 4 I), so the
    least-squares coefficients are basis @ vec / 4.  The part of the slice
    that symmetrizes to zero (the q_ij-type combinations whose symbols vanish
    identically) is reported separately in ``trivially_null`` and never
    affects the verdict.  An exact form is classified on integers over a
    common denominator and returns both parts as Fractions.
    """
    exact = q.is_exact
    x, scale = _scaled(q.k, exact, 24)  # 24: the symmetrization's sixth, then a quarter
    basis = _QUADRIC_XI.astype(object if exact else float)
    # fully symmetric part: the average over the 6 orderings of (i, j, k)
    sym = _div(sum(x.transpose(0, 1, *p) for p in permutations((2, 3, 4))), 6, exact)
    vec = sym[(Ellipsis, *_MONOMIALS)] * _MULTIPLICITY.astype(sym.dtype)
    lin = _div(basis @ vec[..., None], 4, exact)[..., 0]
    lin = lin if exact else lin.astype(float)
    defect = vec - (basis.T @ lin[..., None])[..., 0]
    verdict, residual, bound = _verdict(q.k, defect.reshape(-1, 20), scale, exact, tol)
    trivially_null = x - sym
    if exact:
        lin, trivially_null = _fractions(lin, scale), _fractions(trivially_null, scale)
    return verdict, NullDecomposition(
        lam=np.zeros((q.n_components,) * 2),  # no q0 coefficient at the cubic level
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
    """max |symbol| over the slices of ``q`` at the covector ``xi``; an exact form's is
    taken on Fractions and read by ``_quotient``, so past the float range it reads inf."""
    quadratic, exact = isinstance(q, QuadraticFormSpec), q.is_exact
    arr, subscripts = (q.s, "...jk,j,k->...") if quadratic else (q.k, "...ijk,i,j,k->...")
    arr, xi = (arr, np.array([Fraction(x) for x in xi])) if exact else (arr.astype(float), xi)
    top = np.max(np.abs(np.einsum(subscripts, arr, *[xi] * (2 if quadratic else 3))))
    return _quotient(*top.as_integer_ratio()) if exact else float(top)


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

    Represents a(u_T v_T, u_T v_R; u_R v_T, u_R v_R) + b1 . (du) v + b2 . (dv) u + c u v,
    per point: ``a`` holds the 2 x 2 block in its last two axes, ``b1`` and ``b2`` the
    (d_T, d_R) coefficients in their last axis.
    """

    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c: np.ndarray


def transformed_q0_coefficients(T, R) -> BilinearCoeffs:
    """Coefficients of the pushforward of q0 through the compactifying map at the
    points (T, R), broadcast over arrays.

    For cylinder functions u, v the bilinear form

        Q(u, du; v, dv) = Omega^{-3} q0(d(Omega u~), d(Omega v~))

    (tilde denoting the Minkowski pullback) is assembled by the chain rule from
    the Jacobian of (t, r) -> (T, R) at the Minkowski preimage, whose rows push
    d_t to (p + q) d_T + (p - q) d_R and d_r to (p - q) d_T + (p + q) d_R, and the
    Omega gradient (d_t Omega, d_r Omega) = (-Omega sin T cos R, -Omega cos T sin R).
    Raises DomainError outside the diamond, the finite-radius region.
    """
    T, R = np.broadcast_arrays(np.asarray(T, float), np.asarray(R, float))
    if not geometry.in_diamond(T, R).all():
        raise geometry._outside_diamond_error(T, R)
    t, r = geometry.minkowski_coords(T, R)
    p, q = geometry.frame_terms(t, r)
    om = geometry.omega_minkowski(t, r)
    om_t, om_r = -om * np.sin(T) * np.cos(R), -om * np.cos(T) * np.sin(R)
    grad_t = np.stack([p + q, p - q], axis=-1)  # (d_T, d_R) coefficients of d_t acting on u
    grad_r = np.stack([p - q, p + q], axis=-1)
    a = (grad_t[..., :, None] * grad_t[..., None, :]
         - grad_r[..., :, None] * grad_r[..., None, :]) / om[..., None, None]
    b = (om_t[..., None] * grad_t - om_r[..., None] * grad_r) / om[..., None] ** 2
    c = (om_t ** 2 - om_r ** 2) / om ** 3
    return BilinearCoeffs(a=a, b1=b, b2=b.copy(), c=c)
