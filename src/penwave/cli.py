"""Command-line entry point.

Subcommands: ``transform`` (batch coordinate transforms), ``check-null``
(null-condition classification of form files), ``compat`` (compatibility jets
and the boundary-vanishing report), ``simulate`` (the exterior evolution),
and ``verify`` (named identity/estimate certificates).

Exit codes are fixed for scriptability:

    0  success
    2  parse error (config, form file, input CSV)
    3  domain/config error
    4  stability failure
    5  nonfinite blow-up
    6  coverage error
    7  a requested verdict failed

Every run writes a manifest (structured text) listing all output paths, and
for ``simulate`` the run's config keys as the store records them; the
manifest is written last via an atomic rename, so its presence certifies a
complete run.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, analysis, compat, geometry, nullform, solver
from .errors import CoverageError, NaNError, ParseError, PenwaveError, StabilityError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_STABILITY = 4
EXIT_NAN = 5
EXIT_COVERAGE = 6
EXIT_VERDICT = 7

_EXIT_BY_ERROR = (
    (ParseError, EXIT_PARSE),
    (StabilityError, EXIT_STABILITY),
    (NaNError, EXIT_NAN),
    (CoverageError, EXIT_COVERAGE),
)


def _exit_code(exc: PenwaveError) -> int:
    """The exit code of an error; every error the table does not name is a domain error."""
    for types, code in _EXIT_BY_ERROR:
        if isinstance(exc, types):
            return code
    return EXIT_DOMAIN


# ---------------------------------------------------------------------------
# manifest


class Manifest:
    """Run record: resolved config, outputs, verdicts; atomic final write."""

    def __init__(self, command: str):
        self.command = command
        self.started = time.time()
        self.outputs: list[str] = []
        self.verdicts: dict[str, str] = {}
        self.config: dict[str, str] = {}

    def add_output(self, path) -> str:
        self.outputs.append(str(path))
        return str(path)

    def write(self, outdir, extend: bool = False) -> str:
        """Write ``outdir/manifest.ini``; ``extend`` keeps one already there and adds to it."""
        doc = configparser.ConfigParser()
        doc["manifest"] = {
            "command": self.command,
            "version": __version__,
            "wall_clock_s": f"{time.time() - self.started:.3f}",
        }
        doc["config"] = self.config
        doc["outputs"], doc["verdicts"] = {}, {}
        final = os.path.join(outdir, "manifest.ini")
        if extend:
            try:
                doc.read(final)
            except configparser.Error as exc:
                raise ParseError(f"{final}: {exc}") from exc
        paths = dict.fromkeys([*doc["outputs"].values(), *self.outputs])
        doc["outputs"] = {f"path_{i}": p for i, p in enumerate(paths)}
        doc["verdicts"].update(self.verdicts)
        os.makedirs(outdir, exist_ok=True)
        tmp = final + ".tmp"
        with open(tmp, "w") as fh:
            doc.write(fh)
        os.replace(tmp, final)
        return final


# ---------------------------------------------------------------------------
# transform


def _broken_rule(x, y, backward: bool) -> str:
    """The first rule a rejected ``transform`` row (x, y) breaks, in words."""
    if backward:
        rules = ((math.isfinite(x), f"T must be finite, got {x}"),
                 (-math.pi < x < math.pi, f"T must lie in (-pi, pi), got {x}"),
                 (0.0 <= y <= math.pi, f"R must lie in [0, pi], got {y}"))
    else:
        rules = ((math.isfinite(x), f"t must be finite, got {x}"),
                 (math.isfinite(y), f"r must be finite, got {y}"),
                 (y >= 0, f"radial coordinate must be nonnegative, got {y}"))
    for ok, message in rules:
        if not ok:
            return message
    if backward:
        return str(geometry._outside_diamond_error(x, y))
    return f"T must lie in (-pi, pi), got {geometry.einstein_coords(x, y)[0]}"


def cmd_transform(args) -> int:
    try:
        data = np.loadtxt(args.input, delimiter=",", ndmin=2)
    except Exception as exc:
        raise ParseError(f"{args.input}: {exc}") from exc
    if data.shape[1] < 2:
        raise ParseError(f"{args.input}: need two columns")
    x, y = data[:, 0], data[:, 1]
    # rejected rows are overwritten below; a finite |t +- r| > 1e154 rounds Omega to 0
    with np.errstate(invalid="ignore", over="ignore"):
        if args.backward:
            valid, mapped = geometry.in_diamond(x, y), geometry.minkowski_coords(x, y)
        else:
            mapped = (*geometry.einstein_coords(x, y), geometry.omega_minkowski(x, y))
            # |t| beyond ~1e16 rounds T to +-pi, outside the open cylinder
            valid = geometry.minkowski_valid(x, y) & (abs(mapped[0]) < math.pi)
    columns = [x, y, *(np.where(valid, m, np.nan) for m in mapped)]
    failed = np.flatnonzero(~valid)
    for i in failed:
        print(f"row {i}: {_broken_rule(x[i], y[i], args.backward)}", file=sys.stderr)
    manifest = Manifest("transform")
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "transformed.csv")
    header = ["T", "R", "t", "r"] if args.backward else ["t", "r", "T", "R", "omega"]
    solver.write_series_csv(out_path, header, columns)
    manifest.add_output(out_path)
    manifest.verdicts["rows_failed"] = str(len(failed))
    manifest.write(args.out)
    return EXIT_OK if len(failed) == 0 else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# check-null


def parse_form_file(path) -> nullform.QuadraticFormSpec | nullform.CubicFormSpec:
    """Read the documented tuple format.

    The first non-comment line is a header ``quadratic N`` or ``cubic N``
    (N = number of components); each further line holds five indices and a
    value: ``I J K j k value`` for quadratic entries s[I,J,K,j,k] or
    ``I J i j k value`` for cubic entries k[I,J,i,j,k].  Integers and fractions
    ``a/b`` are kept exact; a value with a decimal point or an exponent is a float,
    and then so is the whole form.  An index given twice is a ParseError naming
    both lines.
    """
    kind = None
    n = 0
    entries = {}
    exact = True
    with open(path) as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in ("quadratic", "cubic"):
                raise ParseError(
                    "expected header 'quadratic N' or 'cubic N'", line=lineno
                )
            kind = parts[0]
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"bad component count: {parts[1]}", line=lineno) from exc
            if n < 1:
                raise ParseError("component count must be positive", line=lineno)
            shape = (n, n, n, 4, 4) if kind == "quadratic" else (n, n, 4, 4, 4)
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}", line=lineno)
        try:
            idx = tuple(int(p) for p in parts[:5])
        except ValueError as exc:
            raise ParseError(f"bad index in '{line}'", line=lineno) from exc
        val_str = parts[5]
        is_exact = val_str.lstrip("+-").replace("/", "", 1).isdigit()
        try:
            value = Fraction(val_str) if is_exact else float(val_str)
        except ZeroDivisionError as exc:
            raise ParseError(f"zero denominator in value '{val_str}'", line=lineno) from exc
        except ValueError as exc:
            raise ParseError(f"bad value '{val_str}'", line=lineno) from exc
        exact = exact and is_exact
        for k, (i, b) in enumerate(zip(idx, shape)):
            if not 0 <= i < b:
                raise ParseError(f"index {k} out of range (0..{b - 1})", line=lineno)
        if idx in entries:
            raise ParseError(f"entry {' '.join(map(str, idx))} repeats line {entries[idx][0]}",
                             line=lineno)
        entries[idx] = (lineno, value)
    if kind is None:
        raise ParseError("empty form file", line=len(lines) or 1)
    arr = np.zeros(shape, dtype=object if exact else float)
    for idx, (_, value) in entries.items():
        arr[idx] = value if exact else float(value)
    if kind == "quadratic":
        return nullform.QuadraticFormSpec(s=arr)
    return nullform.CubicFormSpec(k=arr)


def cmd_check_null(args) -> int:
    if args.builtin:
        dt2 = np.zeros((1, 1, 1, 4, 4), dtype=object)
        dt2[0, 0, 0, 0, 0] = Fraction(1)
        forms = {
            "q0": nullform.q0_spec(exact=True),
            "q01": nullform.qij_spec(0, 1, exact=True),
            "q12": nullform.qij_spec(1, 2, exact=True),
            "dt-squared": nullform.QuadraticFormSpec(s=dt2),
        }
        if args.builtin not in forms:
            raise ParseError(f"unknown builtin '{args.builtin}'; choose from {sorted(forms)}")
        form = forms[args.builtin]
    else:
        form = parse_form_file(args.form)
    if isinstance(form, nullform.QuadraticFormSpec):
        verdict, decomp = nullform.check_null_semilinear(form)
    else:
        verdict, decomp = nullform.check_null_quasilinear(form)
    if verdict:
        lam = np.asarray(decomp.lam).ravel()
        big = lam[np.argmax(np.abs(lam))]
        if isinstance(big, Fraction):  # past the float range it prints as +-inf
            big = nullform._quotient(*big.as_integer_ratio())
        print(f"null, lambda={big:g}, "
              f"residual={decomp.residual:.3e}")
    else:
        xi, value = nullform.cone_witness(form)
        print(f"non-null, residual={decomp.residual:.3e}, "
              f"witness xi=({xi[0]:g},{xi[1]:g},{xi[2]:g},{xi[3]:g}) "
              f"symbol={value:.6g}")
    if args.out:
        manifest = Manifest("check-null")
        report = analysis.structured_report(
            "null-classifier", "light-cone-symbol", args.builtin or args.form,
            decomp.residual, decomp.tol, verdict,
        )
        path = os.path.join(args.out, "null_report.json")
        os.makedirs(args.out, exist_ok=True)
        analysis.write_report(report, path)
        manifest.add_output(path)
        manifest.verdicts["null"] = str(verdict)
        manifest.write(args.out)
    if args.require_null and not verdict:
        return EXIT_VERDICT
    return EXIT_OK


# ---------------------------------------------------------------------------
# compat


def cmd_compat(args) -> int:
    cfg = solver.read_config(args.config)
    scfg = solver.solver_config_from(cfg)
    order = solver.config_value(cfg, "verify", "order", 4, int)
    s_order = solver.config_value(cfg, "verify", "boundary_order", order, int)
    tol = solver.config_value(cfg, "verify", "tol", None)
    r_b = scfg.obs.r_b
    f, g = scfg.data.profiles(r_b, scfg.r_max, scfg.dr, scfg.epsilon)
    jet = compat.compute_jet(f, g, scfg.nonlinearity, K=order)
    report = compat.check_compatibility(jet, scfg.obs, s=s_order, tol=tol)
    manifest = Manifest("compat")
    os.makedirs(args.out, exist_ok=True)
    jet_path = os.path.join(args.out, "jet.csv")
    solver.write_series_csv(
        jet_path,
        ["r"] + [f"psi_{k}" for k in range(order + 1)],
        [f.r] + [jet.psi[k].values for k in range(order + 1)],
    )
    manifest.add_output(jet_path)
    rep_path = os.path.join(args.out, "compat_report.json")
    analysis.write_report(
        analysis.structured_report(
            "boundary-compatibility", "jet-boundary-vanishing", args.config,
            max(abs(v) for v in report.boundary_values), report.tol,
            report.compatible,
        ),
        rep_path,
    )
    manifest.add_output(rep_path)
    manifest.verdicts["compatible"] = str(report.compatible)
    manifest.write(args.out)
    for k, (val, ok) in enumerate(zip(report.boundary_values, report.passed)):
        print(f"order {k}: |psi_{k}(r_b)| = {abs(val):.3e}  "
              f"{'ok' if ok else 'VIOLATED'}")
    return EXIT_OK if report.compatible else EXIT_VERDICT


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = solver.read_config(args.config)
    scfg = solver.solver_config_from(cfg)
    manifest = Manifest("simulate")
    manifest.config = {key: value for keys in solver.config_sections(scfg).values()
                       for key, value in keys.items()}
    every = solver.config_value(cfg, "output", "snapshot_every", 5.0)
    solver.check_snapshot_every(every)  # before the run, not after it
    traj = solver.run(scfg)
    for p in solver.write_outputs(traj, args.out, snapshot_every=every):
        manifest.add_output(p)
    manifest.verdicts["completed"] = str(traj.completed)
    manifest.write(args.out)
    print(f"completed t_max={scfg.t_max:g}; outputs in {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    check = analysis.CHECKS.get(args.check)
    if check is None:
        raise ParseError(f"unknown check '{args.check}'; choose from {sorted(analysis.CHECKS)}")
    if args.sigma is not None:
        if not check.takes_sigma:
            raise ParseError(f"check '{args.check}' takes no --sigma")
        analysis._check_sigma(args.sigma)
    if (check.reads == "nothing") == (args.traj is not None or args.config is not None):
        raise ParseError(f"check '{args.check}' " + ("reads no trajectory: drop --traj and --config"
                         if check.reads == "nothing" else "needs --traj DIR or --config PATH"))
    manifest = Manifest("verify")  # its clock covers the check
    source = None
    if args.traj is not None:
        source = solver.load_trajectory(args.traj)
    elif args.config is not None:
        source = solver.run(solver.solver_config_from(solver.read_config(args.config)))
    if check.reads == "field":
        source = solver.transform_to_cylinder(source, solver.CylinderGrid())
    report = check.run(source, **({} if args.sigma is None else {"sigma": args.sigma}))
    shown = (f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in report.items()
             if k not in ("check", "anchor", "inputs_digest", "verdict"))
    print(f"{args.check}: {' '.join(shown)} -> {report['verdict']}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"verify_{args.check}.json")
        analysis.write_report(report, path)
        manifest.add_output(path)
        manifest.verdicts[args.check] = report["verdict"]
        manifest.write(args.out, extend=True)
    return EXIT_OK if report["verdict"] == "pass" else EXIT_VERDICT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penwave",
        description="Conformal-method toolkit for exterior nonlinear waves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="batch coordinate transform of CSV rows")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backward", action="store_true",
                   help="rows are (T,R); map back to (t,r)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check-null", help="classify a nonlinearity's form file")
    p.add_argument("--form", help="form file in the tuple format")
    p.add_argument("--builtin", help="named builtin form (q0, q01, q12, dt-squared)")
    p.add_argument("--require-null", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_null)

    p = sub.add_parser("compat", help="compatibility jet + boundary report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("simulate", help="run the exterior evolution")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a named certificate")
    p.add_argument("--check", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config")
    source.add_argument("--traj", help="directory written by 'simulate'")
    p.add_argument("--sigma", type=float, help=f"in (0, 1]; default {analysis.DEFAULT_SIGMA}")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        loc = f" (line {exc.line})" if getattr(exc, "line", None) else ""
        print(f"error: {exc}{loc}", file=sys.stderr)
        return EXIT_PARSE
    except PenwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
