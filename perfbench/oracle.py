#!/usr/bin/env python3
"""Reference values for certify-sweep, computed without penwave.

Runs in its own process before the workload process starts, so neither
sympy nor mpmath is timed or counted in the workload's memory:

- the compatibility jets psi_2..psi_4 of the three built-in nonlinearities,
  derived symbolically with sympy and evaluated on the jet grid;
- the obstacle boundary curve R(T) = atan r_b + asin(r_b cos T / sqrt(1 + r_b^2))
  at 50 significant digits with mpmath.

Usage: python3 perfbench/oracle.py --seed N --out oracle.npz
"""

from __future__ import annotations

import argparse

import numpy as np

import inputs

# N(u, u_t, u_r) of each built-in nonlinearity, written out independently
NONLINEARITIES = {
    "zero": lambda u, ut, ur: 0,
    "q0-radial": lambda u, ut, ur: ut ** 2 - ur ** 2,
    "dt-squared": lambda u, ut, ur: ut ** 2,
}


def sympy_jets(params: dict, order: int = inputs.JET_ORDER) -> dict[str, list]:
    """psi_0..psi_order of u_tt = u_rr + (2/r) u_r + N(u, u_t, u_r), as numpy callables.

    psi_{k+2} is d_t^k of the right side at t = 0, with u replaced by its
    time Taylor polynomial.  The recursion is derived once on undefined
    functions psi_j(r), then filled in with the Gaussian data, which keeps
    sympy from differentiating large expressions in t.
    """
    import sympy as sp

    r, t = sp.symbols("r t")
    slots = [sp.Function(f"psi{j}")(r) for j in range(order + 1)]
    bump = sp.exp(-((r - sp.Float(params["center"])) / sp.Float(params["width"])) ** 2)
    out = {}
    for name, nonlin in NONLINEARITIES.items():
        psi = [sp.Float(params["f_amp"]) * bump, sp.Float(params["g_amp"]) * bump]
        for k in range(order - 1):
            u = sum(slots[j] * t ** j / sp.factorial(j) for j in range(k + 2))
            rhs = sp.diff(u, r, 2) + 2 / r * sp.diff(u, r) + nonlin(u, sp.diff(u, t), sp.diff(u, r))
            formula = sp.diff(rhs, t, k).subs(t, 0)
            psi.append(formula.subs(dict(zip(slots, psi))).doit())
        out[name] = [sp.lambdify(r, p, "numpy", cse=True) for p in psi]
    return out


def boundary_reference(times: np.ndarray, r_b: float = inputs.R_B) -> np.ndarray:
    import mpmath

    mpmath.mp.dps = 50
    b = mpmath.mpf(r_b)
    shift = mpmath.atan(b)
    scale = b / mpmath.sqrt(1 + b * b)
    return np.array([float(shift + mpmath.asin(scale * mpmath.cos(mpmath.mpf(float(T)))))
                     for T in times])


def compute(seed: int) -> dict[str, np.ndarray]:
    grid = inputs.jet_grid()
    arrays = {}
    for name, fns in sympy_jets(inputs.jet_params(seed)).items():
        arrays[f"jet/{name}"] = np.stack([np.broadcast_to(fn(grid), grid.shape) for fn in fns])
    times = np.concatenate([inputs.boundary_times(seed), inputs.tip_times()])
    arrays["boundary"] = boundary_reference(times)
    return arrays


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    np.savez(args.out, **compute(args.seed))


if __name__ == "__main__":
    main()
