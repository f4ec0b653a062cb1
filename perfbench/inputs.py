"""Seeded inputs of the three workloads.

Only numpy and the standard library are imported here, so the oracle process
can rebuild exactly the inputs the workload process sees without loading
penwave.  Every generator takes the benchmark seed and derives its own
stream from it, so adding a draw to one part never shifts another.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

R_B = 0.2
SIGMA = 0.25

# null-pipeline: the Q0 run at the acceptance resolution.  t = 45 still
# covers the pushforward row T = pi - 0.049 (it needs t > 40.8 plus the
# 2-unit sampling margin), and it lets the sup-norm fit span the decade
# [4.5, 45].
NULL_T_MAX = 45.0
NULL_DR = 5e-3
NULL_WIDTH = 0.25
NULL_CENTERS = (1.45, 1.55)
NULL_EPSILONS = (0.009, 0.011)
NULL_T_TOP = math.pi - 0.049
NULL_FIT_WINDOW = (NULL_T_MAX / 10.0, NULL_T_MAX)
NULL_TAIL_FROM = NULL_T_MAX / 4.0
# fixed outer radius: the no-reflection bound for the widest seeded support,
# so every seed steps the same number of nodes
NULL_R_MAX = R_B + NULL_T_MAX + NULL_CENTERS[1] + 6.0 * NULL_WIDTH + 2.0
NIRENBERG_WINDOW = 4.0

# store-certify: the acceptance linear run.  Its inputs do not depend on the
# seed, because the store fault it carries must fail identically on every run.
STORE = {"epsilon": 0.01, "center": 1.5, "width": 0.25,
         "dr": 1e-2, "t_max": 40.0, "r_max": 46.0}

# certify-sweep sizes per round
TRANSFORM_ROWS = 10_000
BOUNDARY_TIMES = 2_000
# seeded T stay where the boundary radius exceeds 0.2, so brentq's absolute
# xtol of 1e-13 keeps the relative error below 5e-13 on every seed
BOUNDARY_T_RANGE = (0.0, 1.5)
# fixed approach to the cylinder tip: pi - T = 1, 1e-1, ..., 1e-7
TIP_GAPS = tuple(10.0 ** -k for k in range(8))
FORM_COUNTS = {("quadratic", False): 32, ("quadratic", True): 8,
               ("cubic", False): 16, ("cubic", True): 8}
JET_DR = 2e-3
JET_R_MAX = 6.0
JET_ORDER = 4
BATTERY_POINTS = 50

QUADRIC = (1, -1, -1, -1)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def null_params(seed: int) -> dict:
    rng = _rng(seed, 1)
    return {"epsilon": float(rng.uniform(*NULL_EPSILONS)),
            "center": float(rng.uniform(*NULL_CENTERS)),
            "width": NULL_WIDTH}


def transform_rows(seed: int, n: int = TRANSFORM_ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Forward rows (t, r) and backward rows (T, R) strictly inside the diamond."""
    rng = _rng(seed, 2)
    fwd = np.column_stack([rng.uniform(-50.0, 50.0, n), rng.uniform(0.0, 50.0, n)])
    R = rng.uniform(1e-2, math.pi - 2e-3, n)
    reach = math.pi - R - 1e-3
    T = rng.uniform(-1.0, 1.0, n) * reach
    return fwd, np.column_stack([T, R])


def boundary_times(seed: int, n: int = BOUNDARY_TIMES) -> np.ndarray:
    return _rng(seed, 3).uniform(*BOUNDARY_T_RANGE, n)


def tip_times() -> np.ndarray:
    return math.pi - np.asarray(TIP_GAPS)


def jet_params(seed: int) -> dict:
    rng = _rng(seed, 4)
    return {"f_amp": float(rng.uniform(-0.5, 0.5)),
            "g_amp": float(rng.uniform(0.5, 1.5)),
            "center": float(rng.uniform(1.5, 1.7)),
            "width": float(rng.uniform(0.22, 0.25))}


def jet_grid() -> np.ndarray:
    return np.arange(R_B, JET_R_MAX + 0.5 * JET_DR, JET_DR)


def battery_seed(seed: int) -> int:
    return int(_rng(seed, 5).integers(0, 2 ** 31))


def _quadratic(rng, exact: bool, null: bool) -> tuple[np.ndarray, np.ndarray]:
    """Two-component form: lambda * quadric + antisymmetric part in every slice.

    A non-null form gets one slice with a symmetric part that is not a
    multiple of the quadric.  Returns the tensor and the lambdas built in.
    """
    n = 2
    dtype = object if exact else float
    s = np.zeros((n, n, n, 4, 4), dtype=dtype)
    lam = np.zeros((n, n, n), dtype=dtype)
    quad = np.diag(QUADRIC)
    for idx in np.ndindex(n, n, n):
        if exact:
            lam[idx] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
            a = rng.integers(-5, 6, size=(4, 4))
            anti = np.array([[Fraction(int(v)) for v in row] for row in a - a.T], dtype=object)
        else:
            lam[idx] = float(rng.normal())
            a = rng.normal(size=(4, 4))
            anti = a - a.T
        s[idx] = lam[idx] * quad + anti
    if not null:
        idx = tuple(int(i) for i in rng.integers(0, n, size=3))
        j, k = (int(v) for v in rng.choice(4, size=2, replace=False))
        if exact:
            c = Fraction(int(rng.choice([-3, -2, -1, 1, 2, 3])))
        else:
            c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
        s[idx][j, k] = s[idx][j, k] + c
        s[idx][k, j] = s[idx][k, j] + c
    return s, lam


def _cubic(rng, exact: bool, null: bool) -> tuple[np.ndarray, np.ndarray]:
    """One-component form: (quadric . xi) ell(xi) + a part whose symbol vanishes.

    The second part is antisymmetric in its first two indices, so its fully
    symmetrized symbol is zero.  A non-null form adds a xi_0^3 term.
    Returns the tensor and the linear factor ell built in.
    """
    if exact:
        ell = np.array([Fraction(int(v)) for v in rng.integers(-4, 5, size=4)], dtype=object)
        b = rng.integers(-3, 4, size=(4, 4))
        c = rng.integers(-3, 4, size=4)
        k = np.zeros((1, 1, 4, 4, 4), dtype=object)
    else:
        ell = rng.normal(size=4)
        b = rng.normal(size=(4, 4))
        c = rng.normal(size=4)
        k = np.zeros((1, 1, 4, 4, 4))
    anti = b - b.T
    if exact:
        anti, c = anti.tolist(), c.tolist()
    for i, j, m in np.ndindex(4, 4, 4):
        term = anti[i][j] * c[m]
        if j == m:
            term = term + QUADRIC[j] * ell[i]
        k[0, 0, i, j, m] = Fraction(term) if exact else term
    if not null:
        if exact:
            k[0, 0, 0, 0, 0] += Fraction(int(rng.choice([-2, -1, 1, 2])))
        else:
            k[0, 0, 0, 0, 0] += float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
    return k, ell


def forms(seed: int) -> list[dict]:
    """The seeded batch of forms; every second form of each kind is non-null."""
    rng = _rng(seed, 6)
    out = []
    for (kind, exact), count in FORM_COUNTS.items():
        build = _quadratic if kind == "quadratic" else _cubic
        for i in range(count):
            null = i % 2 == 0
            tensor, built = build(rng, exact, null)
            out.append({"kind": kind, "exact": exact, "null": null,
                        "tensor": tensor, "built": built})
    return out
