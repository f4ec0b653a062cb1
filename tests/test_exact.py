"""The solver against closed-form solutions of the acceptance problem.

The data is (u, u_t) = (0, eps g) outside the sphere r = r_b, with g the
Gaussian bump of ``DataSpec`` and u = 0 on the sphere.

- Linear: w = r u solves w_tt = w_rr on r > r_b with w(r_b) = 0.  d'Alembert's
  formula with the odd reflection of s g(s) about r_b solves it, in closed
  form with erf.
- Q0 (u_tt - Laplace u = u_t^2 - u_r^2): phi = 1 - exp(-u) solves the linear
  problem (Nirenberg's transform).  Since u(0) = 0, phi has the same data and
  the same Dirichlet condition, so u = -log(1 - phi) with phi from the
  linear closed form.

The error of a run is max |u - u_exact| over its frames divided by max |u|.
``linear_derivatives`` gives the linear solution's u_t and u_r in closed form too.
Both runs are second order, so the error is bounded by C dr^2.  The leapfrog's
dispersion error for w_tt = w_rr scales as (1 - cfl^2) dr^2, and the runs at
cfl 0.9 are at least as accurate as at 0.45 with half the steps.  That is why
0.9, the stability ceiling of ``SolverConfig.validate``, is the default.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import erf

from penwave import compat, solver

R_B = 0.2
T_MAX = 10.0
DATA = solver.DataSpec(center=1.5, width=0.25, f_amp=0.0, g_amp=1.0)
EPSILON = 0.01
DEFAULT_CFL = solver.SolverConfig().cfl
# C in error <= C dr^2: measured 4.00 and 4.03 (linear), 4.05 and 4.08 (Q0)
# at dr = 1e-2 and 5e-3 and the default cfl; cfl 0.45 measures 8.55-8.63
ERROR_DR2 = 5.0


def bump_moment(s):
    """Antiderivative of s * eps * exp(-((s - center)/width)^2)."""
    z = (s - DATA.center) / DATA.width
    return EPSILON * (0.5 * DATA.center * DATA.width * math.sqrt(math.pi) * erf(z)
                      - 0.5 * DATA.width ** 2 * np.exp(-z * z))


def linear_u(t, r):
    """d'Alembert's solution with the odd reflection of s g(s) about r_b, over r."""
    lower = np.where(r - t < R_B, 2.0 * R_B - r + t, r - t)
    return 0.5 * (bump_moment(r + t) - bump_moment(lower)) / r


def linear_derivatives(t, r):
    """(u_t, u_r) of ``linear_u``: d/dt and d/dr of its lower limit are -1 and 1, or 1 and
    -1 where the characteristic has reflected off r_b."""
    def rate(s):  # s g(s), the derivative of bump_moment
        return EPSILON * s * np.exp(-(((s - DATA.center) / DATA.width) ** 2))

    reflected = r - t < R_B
    sign = np.where(reflected, 1.0, -1.0)
    upper, lower = rate(r + t), rate(np.where(reflected, 2.0 * R_B - r + t, r - t))
    return (0.5 * (upper - sign * lower) / r,
            0.5 * (upper + sign * lower) / r - linear_u(t, r) / r)


def q0_u(t, r):
    """Nirenberg's u = -log(1 - phi), phi the linear solution."""
    return -np.log1p(-linear_u(t, r))


EXACT = {"linear": (compat.ZERO, linear_u), "q0": (compat.Q0_RADIAL, q0_u)}


@functools.cache
def trajectory(problem, dr, cfl):
    """A run of ``problem`` to T_MAX."""
    return solver.run(solver.SolverConfig(
        nonlinearity=EXACT[problem][0], data=DATA, epsilon=EPSILON,
        dr=dr, cfl=cfl, t_max=T_MAX, r_max=R_B + T_MAX + 6.0))


@functools.cache
def relative_error(problem, dr, cfl):
    """max |u - u_exact| over every frame of a run to T_MAX, over max |u|."""
    traj, exact = trajectory(problem, dr, cfl), EXACT[problem][1]
    err = max(float(np.max(np.abs(u - exact(t, traj.r))))
              for t, u in zip(traj.times, traj.u_frames))
    return err / float(np.max(np.abs(traj.u_frames)))


@pytest.mark.parametrize("problem", sorted(EXACT))
@pytest.mark.parametrize("dr", [1e-2, 5e-3])
def test_error_is_bounded_by_c_dr_squared(problem, dr):
    assert relative_error(problem, dr, DEFAULT_CFL) <= ERROR_DR2 * dr ** 2


@pytest.mark.parametrize("problem", sorted(EXACT))
def test_observed_order_is_two(problem):
    coarse, fine = (relative_error(problem, dr, DEFAULT_CFL) for dr in (1e-2, 5e-3))
    order = math.log2(coarse / fine)
    assert 1.8 <= order <= 2.2, order


@pytest.mark.parametrize("problem", sorted(EXACT))
def test_default_cfl_is_no_less_accurate_than_half_of_it(problem):
    assert DEFAULT_CFL == 0.9
    assert relative_error(problem, 1e-2, DEFAULT_CFL) <= relative_error(problem, 1e-2, 0.45)


# The pushforward's u (``solver.sample``) against the closed form, as max |u - u_exact| /
# max |u_exact| over the centres of every frame interval x grid cell of a linear run to
# T_MAX at the default cfl, where each interpolation's error peaks.  Measured 1.81e-2,
# 5.26e-3, 1.44e-3 and 5.49e-4.  Bilinear interpolation of frames every 0.05, the
# pushforward it replaced, measured on its own centres:
BILINEAR_ERROR = {4e-2: 1.92e-2, 2e-2: 9.32e-3, 1e-2: 8.67e-3, 5e-3: 7.19e-3}


@functools.cache
def sampled_error(dr):
    traj = trajectory("linear", dr, DEFAULT_CFL)
    t = 0.5 * (traj.times[1:] + traj.times[:-1])
    r = 0.5 * (traj.r[1:] + traj.r[:-1])
    tt, rr = (x.ravel() for x in np.meshgrid(t, r, indexing="ij"))
    exact = linear_u(tt, rr)
    u, _, _ = solver.sample(traj, tt, rr)
    return float(np.max(np.abs(u - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("dr", [1e-2, 5e-3])
def test_sampled_u_is_three_times_closer_than_bilinear(dr):
    # 6.0x at 1e-2 and 13x at 5e-3, where cubic Hermite in t leaves the 0.1 frame
    # spacing's own error (about 3.9e-4 at the grid nodes) as the larger part
    assert sampled_error(dr) <= BILINEAR_ERROR[dr] / 3.0


def test_sampled_u_at_dr_2e_2_is_limited_by_linear_interpolation_in_r():
    # 1.8x: dr^2 / 8 |u_rr| of linear interpolation in r is about 3.6e-3 of max |u| here
    assert sampled_error(2e-2) <= BILINEAR_ERROR[2e-2] / 1.5


def test_sampled_u_converges_at_order_one_and_a_half_or_more():
    errors = [sampled_error(dr) for dr in (4e-2, 2e-2, 1e-2)]
    order = math.log(errors[0] / errors[-1]) / math.log(4.0)  # measured 1.83
    assert order >= 1.5, errors


# C in error <= C dr^2 for u_r: the sampled u_r at every frame time and interior node of a
# linear run to T_MAX against the closed form's, over max |u_r|.  Measured 23.5 and 24.3 at
# dr = 1e-2 and 5e-3 (21.5 at 2e-2): the run's own error in u and the chord's in d/dr.
U_R_ERROR_DR2 = 30.0


@pytest.mark.parametrize("dr", [1e-2, 5e-3])
def test_sampled_u_r_at_interior_nodes_is_bounded_by_c_dr_squared(dr):
    traj = trajectory("linear", dr, DEFAULT_CFL)
    tt, rr = (x.ravel() for x in np.meshgrid(traj.times, traj.r[1:-1], indexing="ij"))
    _, _, u_r = solver.sample(traj, tt, rr)
    exact = linear_derivatives(tt, rr)[1]
    assert np.max(np.abs(u_r - exact)) <= U_R_ERROR_DR2 * dr ** 2 * np.max(np.abs(exact))


@pytest.mark.parametrize("dr", [1e-2, 5e-3])
def test_last_frame_u_t_is_as_accurate_as_the_frame_before(dr):
    # measured 1.01x at both: the last frame's u_t is centred too (the one-sided
    # difference it replaced read 8.7x at 1e-2 and 16.5x at 5e-3)
    traj = trajectory("linear", dr, DEFAULT_CFL)
    errors = []
    for i in (-2, -1):
        exact = linear_derivatives(traj.times[i], traj.r)[0]
        errors.append(np.max(np.abs(traj.ut_frames[i] - exact)) / np.max(np.abs(exact)))
    assert errors[1] <= 1.1 * errors[0], errors
