#!/usr/bin/env python3
"""One workload in its own process.

run.py starts this file once per measured run and once per set-up probe.
The process imports the penwave modules the workload calls, builds the
workload's inputs from the seed and prints READY; that line ends the set-up
interval.  It then runs whole rounds of the workload, starting another round
while it is expected to end less than half a round after --seconds (at least
one round, two with --trace 1), checks
every round's outputs after the round's timed part, and prints one JSON line:
the operation counts and either the end-to-end figures (--trace 0) or the
per-layer figures (--trace 1).

With --trace 1 the rounds alternate between traced and untraced.  Traced
rounds wrap the penwave functions listed in TRACED; the per-layer figures
are medians over traced rounds and trace.overhead_s is the difference of the
median traced and untraced round times.

Usage (normally through run.py):
    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --scratch DIR [--trace-out PATH] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import inputs
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

# (module, function) pairs wrapped in traced rounds
TRACED = (
    ("solver", "run"), ("solver", "transform_to_cylinder"),
    ("solver", "write_outputs"), ("solver", "load_trajectory"),
    ("analysis", "weighted_norm_report"), ("analysis", "decay_certificate"),
    ("analysis", "energy_inequality_check"),
    ("cli", "main"), ("geometry", "boundary_curve"),
    ("nullform", "check_null_semilinear"), ("nullform", "check_null_quasilinear"),
    ("compat", "compute_jet"), ("compat", "verify_jet"),
    ("cylinder", "intertwining_residual"), ("cylinder", "commutator_residual"),
)

# per-layer time metric -> span names whose self time it sums
SPAN_METRICS = {
    "solver.run_s": ("solver.run",),
    "solver.transform_to_cylinder_s": ("solver.transform_to_cylinder",),
    "solver.write_outputs_s": ("solver.write_outputs",),
    "solver.load_trajectory_s": ("solver.load_trajectory",),
    "analysis.weighted_norm_report_s": ("analysis.weighted_norm_report",),
    "analysis.decay_certificate_s": ("analysis.decay_certificate",),
    "analysis.energy_inequality_check_s": ("analysis.energy_inequality_check",),
    "cli.transform_s": ("cli.main",),
    "geometry.boundary_curve_s": ("geometry.boundary_curve",),
    "nullform.classify_s": ("nullform.classify",),
    "nullform.classify_exact_s": ("nullform.classify_exact",),
    "compat.compute_jet_s": ("compat.compute_jet",),
    "compat.verify_jet_s": ("compat.verify_jet",),
    "cylinder.batteries_s": ("cylinder.intertwining_residual", "cylinder.commutator_residual"),
}

# counters every workload reports per round; those a workload does not set stay 0
COUNTERS = {
    "solver.node_steps": "count", "solver.run_rss_mb": "MB", "solver.frames_mb": "MB",
    "solver.cylinder_nodes": "count", "solver.store_mb": "MB", "solver.frames_loaded": "count",
    "analysis.weighted_norm_rows": "count", "cli.transform_rows": "count",
    "nullform.forms": "count",
}

UNITS = {**{name: "s" for name in SPAN_METRICS}, **COUNTERS,
         "solver.ns_per_node_step": "ns", "geometry.boundary_curve_calls": "count",
         "process.cpu_s": "s", "trace.overhead_s": "s"}


def penwave(*names: str) -> SimpleNamespace:
    """Import penwave modules from this checkout's src/ and nowhere else."""
    import importlib

    modules = {name: importlib.import_module(f"penwave.{name}") for name in names}
    origin = Path(sys.modules["penwave"].__file__).resolve().parent
    if origin != ROOT / "src" / "penwave":
        raise SystemExit(f"penwave was imported from {origin}, not from {ROOT / 'src'}")
    return SimpleNamespace(**modules)


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def frame_megabytes(traj) -> float:
    """Bytes of the 2-D arrays a trajectory holds, including lazily cached ones."""
    return sum(v.nbytes for v in vars(traj).values()
               if isinstance(v, np.ndarray) and v.ndim == 2) / 1e6


def node_steps(config) -> int:
    """n_r x n_t from the configuration, as the solver sizes its grid."""
    n_r = int(round((config.r_max - config.obs.r_b) / config.dr)) + 1
    return n_r * int(round(config.t_max / config.dt))


class NullPipeline:
    """Q0 run -> sup-norm fit -> decay certificate -> pushforward -> energy -> weighted norms."""

    def __init__(self, seed: int, scratch: Path):
        self.pw = pw = penwave("analysis", "compat", "solver")
        self.params = p = inputs.null_params(seed)
        self.config = pw.solver.SolverConfig(
            nonlinearity=pw.compat.Q0_RADIAL, epsilon=p["epsilon"],
            data=pw.solver.DataSpec(center=p["center"], width=p["width"]),
            dr=inputs.NULL_DR, t_max=inputs.NULL_T_MAX, r_max=inputs.NULL_R_MAX,
        )
        self.grid = pw.solver.CylinderGrid(T_max=inputs.NULL_T_TOP)

    def round(self, gauges) -> dict:
        pw = self.pw
        rss = current_rss_bytes()
        traj = pw.solver.run(self.config)
        gauges["solver.run_rss_mb"] = max(0, peak_rss_bytes() - rss) / 1e6
        m = traj.monitors
        fit = pw.analysis.fit_power(
            pw.analysis.Series(m.t[1:], np.maximum(m.sup_u[1:], 1e-300)),
            window=inputs.NULL_FIT_WINDOW,
        )
        cert = pw.analysis.decay_certificate(traj, sigma=inputs.SIGMA,
                                             tail_from=inputs.NULL_TAIL_FROM)
        field = pw.solver.transform_to_cylinder(traj, self.grid)
        energy = pw.analysis.energy_inequality_check(field)
        norms = pw.analysis.weighted_norm_report(field, p=2, sigma=inputs.SIGMA)
        return {"traj": traj, "fit": fit, "cert": cert, "field": field,
                "energy": energy, "norms": norms}

    def check(self, out: dict, ledger: checks.Ledger) -> dict:
        traj, field = out["traj"], out["field"]
        ok_n, share = checks.check_nirenberg(traj.times, traj.r, traj.u_frames, self.params,
                                             inputs.R_B, inputs.NIRENBERG_WINDOW)
        ok_e, drift = checks.check_phi_energy(traj.r, traj.u_frames, traj.ut_frames,
                                              traj.ur_frames)
        ledger.op("solver.run", traj.completed and ok_n and ok_e,
                  detail=f"nirenberg share {share:.3g}, E_phi drift {drift:.3g}")
        exponent = out["fit"].exponent
        lo, hi = checks.SUP_EXPONENT
        ledger.op("analysis.fit_power", lo <= exponent <= hi, detail=f"exponent {exponent:.4f}")
        cert = out["cert"]
        ledger.op("analysis.decay_certificate",
                  math.isfinite(cert.C_sup) and cert.plateau_ratio <= checks.DECAY_PLATEAU,
                  detail=f"plateau {cert.plateau_ratio:.4f}")
        ok_p, rel = checks.check_pushforward(field, self.params, inputs.R_B,
                                             inputs.NIRENBERG_WINDOW, nonlinear=True)
        ledger.op("solver.transform_to_cylinder",
                  ok_p and abs(field.T[-1] - inputs.NULL_T_TOP) < 1e-12,
                  detail=f"rel {rel:.3g}, top row {field.T[-1]:.6f}")
        ledger.op("analysis.energy_inequality_check", out["energy"].passed,
                  detail=f"slack {out['energy'].slack:.3g}")
        norms = out["norms"]
        ledger.op("analysis.weighted_norm_report", norms.bounded and len(norms.T) > 0,
                  detail=f"plateau {norms.plateau_ratio:.4f}")
        return {"solver.node_steps": node_steps(self.config),
                "solver.frames_mb": frame_megabytes(traj),
                "solver.cylinder_nodes": int(field.mask.sum()),
                "analysis.weighted_norm_rows": len(norms.T)}


class StoreCertify:
    """Linear run, certificates in memory, write + load, the same certificates from the store."""

    STORE_FAULT = "store"  # load_trajectory keeps 9 of 810 frames and interpolates in t

    def __init__(self, seed: int, scratch: Path):
        self.pw = pw = penwave("analysis", "solver")
        s = inputs.STORE
        self.params = s
        self.config = pw.solver.SolverConfig(
            epsilon=s["epsilon"], data=pw.solver.DataSpec(center=s["center"], width=s["width"]),
            dr=s["dr"], t_max=s["t_max"], r_max=s["r_max"],
        )
        self.grid = pw.solver.CylinderGrid()
        self.store = scratch / "store"

    def _certify(self, traj) -> dict:
        pw = self.pw
        field = pw.solver.transform_to_cylinder(traj, self.grid)
        return {"field": field,
                "energy": pw.analysis.energy_inequality_check(field),
                "norms": pw.analysis.weighted_norm_report(field, p=2, sigma=inputs.SIGMA),
                "decay": pw.analysis.decay_certificate(traj, sigma=inputs.SIGMA)}

    def round(self, gauges) -> dict:
        pw = self.pw
        rss = current_rss_bytes()
        traj = pw.solver.run(self.config)
        gauges["solver.run_rss_mb"] = max(0, peak_rss_bytes() - rss) / 1e6
        memory = self._certify(traj)
        paths = pw.solver.write_outputs(traj, self.store)
        loaded = pw.solver.load_trajectory(self.store)
        return {"traj": traj, "memory": memory, "paths": paths, "loaded": loaded,
                "stored": self._certify(loaded)}

    def check(self, out: dict, ledger: checks.Ledger) -> dict:
        traj, mem, sto = out["traj"], out["memory"], out["stored"]
        ok_d, rel = checks.check_dalembert(traj.times, traj.r, traj.u_frames, self.params,
                                           inputs.R_B, self.config.dr)
        ok_e, drift = checks.check_energy_drift(traj.monitors.E_total)
        ledger.op("solver.run", traj.completed and ok_d and ok_e,
                  detail=f"d'Alembert rel {rel:.3g}, energy drift {drift:.3g}")
        ok_p, prel = checks.check_pushforward(mem["field"], self.params, inputs.R_B,
                                              self.params["t_max"], nonlinear=False)
        ledger.op("solver.transform_to_cylinder", ok_p, detail=f"rel {prel:.3g}")
        ledger.op("analysis.energy_inequality_check", mem["energy"].passed,
                  detail=f"slack {mem['energy'].slack:.3g}")
        ledger.op("analysis.weighted_norm_report", mem["norms"].bounded,
                  detail=f"plateau {mem['norms'].plateau_ratio:.4f}")
        dec = mem["decay"]
        ledger.op("analysis.decay_certificate",
                  math.isfinite(dec.C_sup) and dec.plateau_ratio <= checks.DECAY_PLATEAU,
                  detail=f"plateau {dec.plateau_ratio:.4f}")
        ledger.op("solver.write_outputs",
                  len(out["paths"]) > 0 and all(os.path.getsize(p) > 0 for p in out["paths"]))

        # from the store: every value must equal its in-memory twin
        loaded, fault = out["loaded"], self.STORE_FAULT
        ledger.op("solver.load_trajectory",
                  checks.rel_close(loaded.times, traj.times)
                  and checks.rel_close(loaded.u_frames, traj.u_frames)
                  and checks.rel_close(loaded.ut_frames, traj.ut_frames), fault=fault)
        f_mem, f_sto = mem["field"], sto["field"]
        ledger.op("solver.transform_to_cylinder[store]",
                  np.array_equal(f_mem.mask, f_sto.mask)
                  and checks.rel_close(f_sto.values[f_sto.mask], f_mem.values[f_mem.mask])
                  and checks.rel_close(f_sto.d_T, f_mem.d_T)
                  and checks.rel_close(f_sto.d_R, f_mem.d_R), fault=fault)
        ledger.op("analysis.energy_inequality_check[store]",
                  sto["energy"].passed
                  and checks.rel_close(sto["energy"].slack, mem["energy"].slack), fault=fault)
        ledger.op("analysis.weighted_norm_report[store]",
                  checks.rel_close(sto["norms"].m, mem["norms"].m)
                  and checks.rel_close(sto["norms"].plateau_ratio, mem["norms"].plateau_ratio),
                  fault=fault)
        ledger.op("analysis.decay_certificate[store]",
                  checks.rel_close(sto["decay"].C_sup, dec.C_sup)
                  and checks.rel_close(sto["decay"].plateau_ratio, dec.plateau_ratio),
                  fault=fault)
        counters = {"solver.node_steps": node_steps(self.config),
                    "solver.frames_mb": frame_megabytes(traj),
                    "solver.cylinder_nodes": int(f_mem.mask.sum() + f_sto.mask.sum()),
                    "solver.store_mb": sum(os.path.getsize(p) for p in out["paths"]) / 1e6,
                    "solver.frames_loaded": len(loaded.times),
                    "analysis.weighted_norm_rows": len(mem["norms"].T) + len(sto["norms"].T)}
        shutil.rmtree(self.store)
        return counters


class CertifySweep:
    """CLI transforms, boundary curve, null classifiers, compatibility jets, identity batteries."""

    TIP_FAULT = "boundary-tip"  # brentq's absolute xtol near the cylinder tip

    def __init__(self, seed: int, scratch: Path):
        self.pw = pw = penwave("cli", "compat", "cylinder", "geometry", "nullform")
        fwd, bwd = inputs.transform_rows(seed)
        self.rows = {"forward": fwd, "backward": bwd}
        self.csv = {}
        for direction, rows in self.rows.items():
            self.csv[direction] = scratch / f"{direction}.csv"
            np.savetxt(self.csv[direction], rows, delimiter=",", fmt="%.17g")
        self.scratch = scratch
        self.obs = pw.geometry.ObstacleSpec(inputs.R_B)
        seeded = inputs.boundary_times(seed)
        self.times = np.concatenate([seeded, inputs.tip_times()])
        self.n_seeded = len(seeded)
        self.forms = inputs.forms(seed)
        self.specs = [pw.nullform.QuadraticFormSpec(s=f["tensor"]) if f["kind"] == "quadratic"
                      else pw.nullform.CubicFormSpec(k=f["tensor"]) for f in self.forms]
        p = inputs.jet_params(seed)
        grid = inputs.jet_grid()
        self.f, self.g = (
            pw.compat.RadialProfile(
                r0=inputs.R_B, dr=inputs.JET_DR,
                values=pw.compat.gaussian_bump(p["center"], p["width"], amp)(grid))
            for amp in (p["f_amp"], p["g_amp"]))
        self.nonlinearities = (pw.compat.ZERO, pw.compat.Q0_RADIAL, pw.compat.DT_SQUARED)
        self.points = pw.cylinder.battery_points(inputs.BATTERY_POINTS,
                                                 seed=inputs.battery_seed(seed))
        self.oracle = None

    def round(self, gauges) -> dict:
        pw = self.pw
        codes = {}
        for direction, path in self.csv.items():
            argv = ["transform", "--input", str(path), "--out", str(self.scratch / direction)]
            if direction == "backward":
                argv.append("--backward")
            codes[direction] = pw.cli.main(argv)
        phi = [pw.geometry.boundary_curve(self.obs, float(T)) for T in self.times]
        verdicts = [pw.nullform.check_null_semilinear(spec)
                    if isinstance(spec, pw.nullform.QuadraticFormSpec)
                    else pw.nullform.check_null_quasilinear(spec) for spec in self.specs]
        jets, jet_errors = {}, {}
        for F in self.nonlinearities:
            jets[F.name] = pw.compat.compute_jet(self.f, self.g, F, K=inputs.JET_ORDER)
            jet_errors[F.name] = pw.compat.verify_jet(jets[F.name], self.f, self.g, F)
        batteries = {}
        for kind, residual in (("intertwining", pw.cylinder.intertwining_residual),
                               ("commutator", pw.cylinder.commutator_residual)):
            for name, fn in pw.cylinder.TEST_BATTERY:
                batteries[kind, name] = (residual(fn, self.points, h=1e-3),
                                         residual(fn, self.points, h=2e-3))
        return {"codes": codes, "phi": phi, "verdicts": verdicts, "jets": jets,
                "jet_errors": jet_errors, "batteries": batteries}

    def check(self, out: dict, ledger: checks.Ledger) -> dict:
        if self.oracle is None:
            with np.load(self.scratch / "oracle.npz") as data:
                self.oracle = dict(data)
        for direction, rows in self.rows.items():
            result = np.loadtxt(self.scratch / direction / "transformed.csv",
                                delimiter=",", skiprows=1, ndmin=2)
            check = checks.transform_forward_ok if direction == "forward" \
                else checks.transform_backward_ok
            ok = check(rows, result) & (out["codes"][direction] == 0)
            ledger.op(f"cli.transform[{direction}]", ok)
        ok = checks.boundary_ok(out["phi"], self.oracle["boundary"])
        ledger.op("geometry.boundary_curve", ok[:self.n_seeded])
        ledger.op("geometry.boundary_curve[tip]", ok[self.n_seeded:], fault=self.TIP_FAULT)
        for form, (verdict, decomposition) in zip(self.forms, out["verdicts"]):
            ledger.op(f"nullform[{form['kind']}, exact={form['exact']}]",
                      checks.form_ok(form, verdict, decomposition))
        for name, jet in out["jets"].items():
            ok, worst = checks.jet_ok([p.values for p in jet.psi], self.oracle[f"jet/{name}"])
            ledger.op(f"compat.compute_jet[{name}]", ok, detail=f"rel {worst:.3g}")
            ledger.op(f"compat.verify_jet[{name}]", checks.verify_jet_ok(out["jet_errors"][name]))
        for (kind, name), (fine, coarse) in out["batteries"].items():
            ledger.op(f"cylinder.{kind}[{name}]", checks.battery_ok(kind, fine, coarse),
                      detail=f"residual {fine:.3g}, ratio {coarse / fine:.3f}")
        return {"cli.transform_rows": sum(len(rows) for rows in self.rows.values()),
                "nullform.forms": len(self.forms)}


WORKLOADS = {"null-pipeline": NullPipeline, "store-certify": StoreCertify,
             "certify-sweep": CertifySweep}


def classify_name(spec, *args, **kwargs) -> str:
    return "nullform.classify_exact" if spec.is_exact else "nullform.classify"


def install_tracing(tracer: Tracer) -> None:
    """Wrap the TRACED functions of every penwave module the workload has loaded."""
    for module_name, attr in TRACED:
        module = sys.modules.get(f"penwave.{module_name}")
        if module is not None:
            name = classify_name if module_name == "nullform" else None
            tracer.install(module, attr, name)


def layer_metrics(records: list[dict], tracer: Tracer) -> dict[str, float]:
    per_round = []
    for rec in records:
        if not rec["traced"]:
            continue
        seconds, calls = tracer.self_times(rec["index"])
        m = {metric: sum(seconds.get(s, 0.0) for s in spans)
             for metric, spans in SPAN_METRICS.items()}
        m.update({name: rec["counters"].get(name, 0) for name in COUNTERS})
        m["geometry.boundary_curve_calls"] = calls.get("geometry.boundary_curve", 0)
        steps = m["solver.node_steps"]
        m["solver.ns_per_node_step"] = m["solver.run_s"] / steps * 1e9 if steps else 0.0
        m["process.cpu_s"] = rec["cpu"]
        per_round.append(m)
    out = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    # the high-water mark only rises in the first round, which is traced
    out["solver.run_rss_mb"] = records[0]["counters"].get("solver.run_rss_mb", 0)
    traced = [r["wall"] for r in records if r["traced"]]
    untraced = [r["wall"] for r in records if not r["traced"]]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def run(args) -> dict:
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    print("READY", flush=True)
    if args.setup_only:
        return {}

    tracer = Tracer()
    ledger = checks.Ledger()
    records = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 0
        gauges = {}
        if traced:
            tracer.round_id = len(records)
            install_tracing(tracer)
        cpu0, t0 = time.process_time(), time.perf_counter()
        out = workload.round(gauges)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        tracer.remove()
        counters = {**gauges, **workload.check(out, ledger)}
        del out
        records.append({"index": len(records), "traced": traced, "wall": wall, "cpu": cpu,
                        "counters": counters})
        elapsed = time.perf_counter() - start
        mean_round = elapsed / len(records)
        enough = len(records) >= (2 if args.trace else 1)
        if enough and elapsed + mean_round > args.seconds + 0.5 * mean_round:
            break

    if args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in layer_metrics(records, tracer).items()}
        if args.trace_out:
            tracer.dump(args.trace_out, f"{args.workload}-seed{args.seed}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in records), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_bytes() / 1e6, "unit": "MB"},
        }
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics, "rounds": len(records), "faults": dict(ledger.faults),
            "details": ledger.details}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    result = run(parser.parse_args())
    if result:
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
