"""Tests of the benchmark's own checks, at small sizes.

Each check is shown to pass on the program's real output and to fail on an
output that is wrong in the way the check exists to catch.

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from penwave import cli, compat, cylinder, geometry, nullform, solver  # noqa: E402

PARAMS = {"epsilon": 0.01, "center": 1.5, "width": 0.25}


def small_run(nonlinearity, t_max=5.0, dr=5e-3):
    return solver.run(solver.SolverConfig(
        nonlinearity=nonlinearity, epsilon=PARAMS["epsilon"], dr=dr,
        t_max=t_max, r_max=inputs.R_B + t_max + 3.0 + 2.0))


@pytest.fixture(scope="module")
def q0_run():
    return small_run(compat.Q0_RADIAL)


@pytest.fixture(scope="module")
def linear_run():
    return small_run(compat.ZERO)


def test_nirenberg_check_needs_the_nonlinearity(q0_run, linear_run):
    ok, share = checks.check_nirenberg(q0_run.times, q0_run.r, q0_run.u_frames, PARAMS,
                                       inputs.R_B, inputs.NIRENBERG_WINDOW)
    assert ok, share
    ok, share = checks.check_nirenberg(linear_run.times, linear_run.r, linear_run.u_frames,
                                       PARAMS, inputs.R_B, inputs.NIRENBERG_WINDOW)
    assert not ok and share > 0.8


def test_phi_energy_needs_the_nonlinearity(q0_run, linear_run):
    ok, drift = checks.check_phi_energy(q0_run.r, q0_run.u_frames, q0_run.ut_frames,
                                        q0_run.ur_frames)
    assert ok, drift
    ok, drift = checks.check_phi_energy(linear_run.r, linear_run.u_frames,
                                        linear_run.ut_frames, linear_run.ur_frames)
    assert not ok, drift


def test_dalembert_check_rejects_a_scaled_solution(linear_run):
    args = (linear_run.times, linear_run.r)
    ok, rel = checks.check_dalembert(*args, linear_run.u_frames, PARAMS, inputs.R_B, 5e-3)
    assert ok, rel
    ok, rel = checks.check_dalembert(*args, 1.03 * linear_run.u_frames, PARAMS, inputs.R_B, 5e-3)
    assert not ok, rel


def test_pushforward_check_rejects_a_scaled_field(q0_run):
    field = solver.transform_to_cylinder(q0_run, solver.CylinderGrid(n_T=40, n_R=100))
    ok, rel = checks.check_pushforward(field, PARAMS, inputs.R_B, 3.0, nonlinear=True)
    assert ok, rel
    bad = field.with_values(np.where(field.mask, 1.05 * field.values, np.nan), field.mask)
    ok, rel = checks.check_pushforward(bad, PARAMS, inputs.R_B, 3.0, nonlinear=True)
    assert not ok, rel


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_transform_check_catches_one_perturbed_row(tmp_path, direction):
    rows = inputs.transform_rows(seed=7, n=200)[direction == "backward"]
    np.savetxt(tmp_path / "in.csv", rows, delimiter=",", fmt="%.17g")
    argv = ["transform", "--input", str(tmp_path / "in.csv"), "--out", str(tmp_path)]
    assert cli.main(argv + (["--backward"] if direction == "backward" else [])) == 0
    out = np.loadtxt(tmp_path / "transformed.csv", delimiter=",", skiprows=1)
    check = checks.transform_forward_ok if direction == "forward" else checks.transform_backward_ok
    assert check(rows, out).all()
    out[17, 2] *= 1 + 1e-9
    assert np.flatnonzero(~check(rows, out)).tolist() == [17]


def test_boundary_check_passes_seeded_times_and_fails_near_the_tip():
    obs = geometry.ObstacleSpec(inputs.R_B)
    times = np.concatenate([inputs.boundary_times(seed=3, n=50), inputs.tip_times()])
    ref = oracle.boundary_reference(times)
    phi = np.array([geometry.boundary_curve(obs, float(T)) for T in times])
    ok = checks.boundary_ok(phi, ref)
    assert ok[:50].all()
    # brentq's absolute tolerance: pi - T = 1e-2 .. 1e-7 miss the relative bound
    assert ok[50:].tolist() == [True, True, False, False, False, False, False, False]
    assert not checks.boundary_ok(ref * (1 + 1e-11), ref).any()


def classify(form):
    if form["kind"] == "quadratic":
        return nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=form["tensor"]))
    return nullform.check_null_quasilinear(nullform.CubicFormSpec(k=form["tensor"]))


def test_forms_are_classified_as_built():
    forms = inputs.forms(seed=5)
    assert sum(f["null"] for f in forms) == len(forms) // 2
    for form in forms:
        assert checks.form_ok(form, *classify(form)), form["kind"]


def test_a_form_built_non_null_is_rejected():
    for form in inputs.forms(seed=5):
        if form["null"]:
            continue
        verdict, decomposition = classify(form)
        assert not verdict
        # a check that expected a null form must fail on it
        assert not checks.form_ok({**form, "null": True}, verdict, decomposition)


def test_form_check_compares_the_built_coefficients():
    form = next(f for f in inputs.forms(seed=5) if f["null"] and not f["exact"])
    verdict, decomposition = classify(form)
    wrong = {**form, "built": form["built"] * 1.001}
    assert checks.form_ok(form, verdict, decomposition)
    assert not checks.form_ok(wrong, verdict, decomposition)


def test_jets_match_sympy_and_a_perturbed_jet_does_not():
    params = inputs.jet_params(seed=2)
    grid = inputs.jet_grid()
    ref = oracle.sympy_jets(params)
    f, g = (compat.RadialProfile(r0=inputs.R_B, dr=inputs.JET_DR,
                                 values=compat.gaussian_bump(params["center"], params["width"],
                                                             params[a])(grid))
            for a in ("f_amp", "g_amp"))
    for F in (compat.ZERO, compat.Q0_RADIAL, compat.DT_SQUARED):
        psi = [p.values for p in compat.compute_jet(f, g, F, K=inputs.JET_ORDER).psi]
        reference = [np.broadcast_to(fn(grid), grid.shape) for fn in ref[F.name]]
        assert checks.jet_ok(psi, reference)[0], F.name
        psi[4] = psi[4] * (1 + 1e-4)
        assert not checks.jet_ok(psi, reference)[0], F.name


def test_battery_check_needs_second_order_refinement():
    points = cylinder.battery_points(10, seed=4)
    fn = cylinder.TEST_BATTERY[0][1]
    fine = cylinder.commutator_residual(fn, points, h=1e-3)
    coarse = cylinder.commutator_residual(fn, points, h=2e-3)
    assert checks.battery_ok("commutator", fine, coarse)
    assert not checks.battery_ok("commutator", fine, 2.0 * fine)
    assert not checks.battery_ok("intertwining", 1e-3, 4e-3)


def test_ledger_keeps_known_faults_apart():
    ledger = checks.Ledger()
    ledger.op("a", np.array([True, False, True]), fault="store")
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 1, True)
    ledger.op("b", False)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (4, 2, False)
    assert ledger.faults == {"store": 1}


def test_rel_close():
    assert checks.rel_close([1.0, np.nan], [1.0 + 1e-12, np.nan])
    assert not checks.rel_close([1.0, 2.0], [1.0, 2.0 + 1e-6])
    assert not checks.rel_close([1.0], [1.0, 2.0])
    assert not checks.rel_close(0.29, 0.0)
    assert checks.rel_close(0.0, 0.0)


def test_tracer_self_time_excludes_children():
    import types

    mod = types.SimpleNamespace(__name__="penwave.fake")

    def inner():
        time.sleep(0.02)

    def outer():
        mod.inner()
        time.sleep(0.01)

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.round_id = 0
    tracer.install(mod, "inner")
    tracer.install(mod, "outer")
    mod.outer()
    tracer.remove()
    assert mod.inner is inner and mod.outer is outer
    seconds, calls = tracer.self_times(0)
    assert calls == {"fake.outer": 1, "fake.inner": 1}
    assert 0.01 <= seconds["fake.outer"] < 0.02 <= seconds["fake.inner"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)

