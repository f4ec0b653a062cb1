"""Command-line entry point.

Subcommands: ``transform`` (batch coordinate transforms), ``check-null``
(null-condition classification of form files), ``compat`` (compatibility jets
and the boundary-vanishing report), ``simulate`` (the exterior evolution),
and ``verify`` (named identity/estimate certificates).

Exit codes are fixed for scriptability:

    0  success
    2  parse error (config, form file, input CSV)
    3  domain/config error, or an --out that is empty or cannot be created or written
    4  stability failure
    5  nonfinite blow-up
    6  coverage error
    7  a requested verdict failed

Every command takes its ``--out`` through one ``Manifest``, built before the
work: an empty ``--out``, or one that names a file, lies under one or is not
writable, exits 3 with one ``error:`` line and creates nothing. A run with
``--out`` writes a manifest (structured text) listing all output paths, and
for ``simulate`` the run's config keys as the store records them; its
``wall_clock_s`` covers the whole command from the ``--out`` check on. The
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
import warnings
from fractions import Fraction

import numpy as np

from . import __version__, analysis, compat, geometry, nullform, solver
from .errors import ConfigError, CoverageError, NaNError, ParseError, PenwaveError, StabilityError

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


def _exit_code(exc: PenwaveError | OSError) -> int:
    """The exit code of an error; every error the table does not name is a domain error."""
    for types, code in _EXIT_BY_ERROR:
        if isinstance(exc, types):
            return code
    return EXIT_DOMAIN


# ---------------------------------------------------------------------------
# manifest


class Manifest:
    """Run record of one command: its ``--out``, resolved config, outputs and verdicts.

    Built before the command's work, it raises, creating nothing, on an empty ``out``
    and on one whose nearest existing path (``out`` or a parent) is not a writable
    directory. ``out=None`` is a run without ``--out``.
    """

    def __init__(self, command: str, out=None):
        self.command, self.out = command, out
        self.started = time.time()
        self.outputs: list[str] = []
        self.verdicts: dict[str, str] = {}
        self.config: dict[str, str] = {}
        if out == "":
            raise ConfigError("--out must name a directory, got ''")
        if out is not None:
            head = os.path.abspath(out)
            while not os.path.exists(head):
                head = os.path.dirname(head)
            if not (os.path.isdir(head) and os.access(head, os.W_OK)):
                raise NotADirectoryError(f"--out {out}: {head} is not a writable directory")

    def output(self, name: str) -> str:
        """The path ``out/name``, listed as an output; creates ``out`` first."""
        os.makedirs(self.out, exist_ok=True)
        self.outputs.append(os.path.join(self.out, name))
        return self.outputs[-1]

    def write(self, extend: bool = False) -> str:
        """Write ``out/manifest.ini`` after the outputs; ``extend`` keeps one already there
        and adds to it."""
        doc = configparser.ConfigParser(interpolation=None)  # a path may hold a %
        doc["manifest"] = {
            "command": self.command,
            "version": __version__,
            "wall_clock_s": f"{time.time() - self.started:.3f}",
        }
        doc["config"] = self.config
        doc["outputs"], doc["verdicts"] = {}, {}
        final = os.path.join(self.out, "manifest.ini")
        if extend and os.path.exists(final):  # its keys are paths and check names
            doc.read_dict(solver.read_config(final, schema=None))
        paths = dict.fromkeys([*doc["outputs"].values(), *self.outputs])
        doc["outputs"] = {f"path_{i}": p for i, p in enumerate(paths)}
        doc["verdicts"].update(self.verdicts)
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
    manifest = Manifest("transform", args.out)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns on a file without data
            data = np.loadtxt(args.input, delimiter=",", ndmin=2)
    except Exception as exc:
        raise ParseError(f"{args.input}: {exc}") from exc
    if data.shape[1] != 2:
        raise ParseError(f"{args.input}: expected two columns, got {data.shape[1]}")
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
    header = ["T", "R", "t", "r"] if args.backward else ["t", "r", "T", "R", "omega"]
    solver.write_series_csv(manifest.output("transformed.csv"), header, columns)
    manifest.verdicts["rows_failed"] = str(len(failed))
    manifest.write()
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
    both lines, and a file that cannot be read as text one naming the file.
    """
    kind = None
    n = 0
    entries = {}
    exact = True
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
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
    manifest = Manifest("check-null", args.out)
    if args.builtin is not None:
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
        name, coeffs, entries = "lambda", decomp.lam, form.s
    else:
        verdict, decomp = nullform.check_null_quasilinear(form)
        name, coeffs, entries = "ell", decomp.linear_factor, form.k
    if verdict:  # the largest coefficient of the null piece: q0's, or the linear factor's
        coeffs = np.asarray(coeffs).ravel()
        big = coeffs[np.argmax(np.abs(coeffs))]
        if isinstance(big, Fraction):  # past the float range it prints as +-inf
            big = nullform._quotient(*big.as_integer_ratio())
        print(f"null, {name}={big:g}, residual={decomp.residual:.3e}")
    else:
        xi, value = nullform.cone_witness(form)
        print(f"non-null, residual={decomp.residual:.3e}, "
              f"witness xi=({xi[0]:g},{xi[1]:g},{xi[2]:g},{xi[3]:g}) "
              f"symbol={value:.6g}")
    if manifest.out is not None:
        report = analysis.structured_report(
            "null-classifier", "light-cone-symbol", entries,
            decomp.residual, decomp.tol, verdict,
        )
        analysis.write_report(report, manifest.output("null_report.json"))
        manifest.verdicts["null"] = str(verdict)
        manifest.write()
    if args.require_null and not verdict:
        return EXIT_VERDICT
    return EXIT_OK


# ---------------------------------------------------------------------------
# compat


def cmd_compat(args) -> int:
    manifest = Manifest("compat", args.out)
    cfg = solver.read_config(args.config)
    scfg = solver.solver_config_from(cfg)
    order = solver.config_value(cfg, "verify", "order", 4, int)
    s_order = solver.config_value(cfg, "verify", "boundary_order", order, int)
    tol = solver.config_value(cfg, "verify", "tol", None)
    r_b = scfg.obs.r_b
    f, g = scfg.data.profiles(r_b, scfg.r_max, scfg.dr, scfg.epsilon)
    jet = compat.compute_jet(f, g, scfg.nonlinearity, K=order)
    report = compat.check_compatibility(jet, scfg.obs, s=s_order, tol=tol)
    solver.write_series_csv(
        manifest.output("jet.csv"),
        ["r"] + [f"psi_{k}" for k in range(order + 1)],
        [f.r] + [jet.psi[k].values for k in range(order + 1)],
    )
    analysis.write_report(
        analysis.structured_report(
            "boundary-compatibility", "jet-boundary-vanishing", tuple(p.values for p in jet.psi),
            max(abs(v) for v in report.boundary_values), report.tol,
            report.compatible,
        ),
        manifest.output("compat_report.json"),
    )
    manifest.verdicts["compatible"] = str(report.compatible)
    manifest.write()
    for k, (val, ok) in enumerate(zip(report.boundary_values, report.passed)):
        print(f"order {k}: |psi_{k}(r_b)| = {abs(val):.3e}  "
              f"{'ok' if ok else 'VIOLATED'}")
    return EXIT_OK if report.compatible else EXIT_VERDICT


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = solver.read_config(args.config)
    scfg = solver.solver_config_from(cfg)
    every = solver.config_value(cfg, "output", "snapshot_every", 5.0)
    solver.check_snapshot_every(every)  # before the run, not after it
    manifest = Manifest("simulate", args.out)
    manifest.config = {key: value for keys in solver.config_sections(scfg).values()
                       for key, value in keys.items()}
    traj = solver.run(scfg)
    manifest.outputs += solver.write_outputs(traj, manifest.out, snapshot_every=every)
    manifest.verdicts["completed"] = str(traj.completed)
    manifest.write()
    print(f"completed t_max={scfg.t_max:g}; outputs in {manifest.out}")
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
    manifest = Manifest("verify", args.out)  # before a run that --config evolves
    source = None
    if args.traj is not None:
        source = solver.load_trajectory(args.traj)
    elif args.config is not None:
        config = solver.solver_config_from(solver.read_config(args.config))
        check.admit(config)
        source = solver.run(config)
    if check.reads == "field":
        source = solver.transform_to_cylinder(source, solver.CylinderGrid())
    report = check.run(source, **({} if args.sigma is None else {"sigma": args.sigma}))
    shown = (f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in report.items()
             if k not in ("check", "anchor", "inputs_digest", "verdict"))
    print(f"{args.check}: {' '.join(shown)} -> {report['verdict']}")
    if manifest.out is not None:
        analysis.write_report(report, manifest.output(f"verify_{args.check}.json"))
        manifest.verdicts[args.check] = report["verdict"]
        manifest.write(extend=True)
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--form", help="form file in the tuple format")
    source.add_argument("--builtin", help="named builtin form (q0, q01, q12, dt-squared)")
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
    except (PenwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
