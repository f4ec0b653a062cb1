"""Command-line interface: exit codes, file formats, manifests."""

import configparser
import contextlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penwave import analysis, cli, cylinder, errors, geometry, nullform, solver

SMALL_CONFIG = """\
[problem]
nonlinearity = zero
epsilon = 0.01
r_b = 0.2

[grid]
dr = 0.01
cfl = 0.45
t_max = 4.0
r_max = 10.0

[output]
snapshot_every = 2.0
"""


# the short linear run of the agreement and morawetz tests (about 0.04 s)
SHORT_LINEAR_CONFIG = """\
[problem]
nonlinearity = zero

[grid]
dr = 0.01
t_max = 8.0
r_max = 14.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


@pytest.fixture
def short_linear(tmp_path):
    path = tmp_path / "short.ini"
    path.write_text(SHORT_LINEAR_CONFIG)
    return str(path)


class TestConfigParsing:
    def test_valid_config(self, config_path):
        cfg = solver.read_config(config_path)
        scfg = solver.solver_config_from(cfg)
        assert scfg.dr == 0.01
        assert scfg.nonlinearity.name == "zero"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[wavelets]\nx = 1\n")
        with pytest.raises(cli.ParseError):
            solver.read_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\ndx = 0.01\n")
        with pytest.raises(cli.ParseError):
            solver.read_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(cli.ParseError):
            solver.read_config(str(tmp_path / "absent.ini"))

    @pytest.mark.parametrize("section,key", [
        ("grid", "n_t"), ("grid", "n_r"), ("output", "dir"), ("output", "frame_decimation"),
        ("verify", "sigma"), ("verify", "seed"), ("verify", "require_null"),
    ])
    def test_unread_keys_exit_with_parse_error(self, tmp_path, capsys, section, key):
        cfg = configparser.ConfigParser()
        cfg.read_string(SMALL_CONFIG)
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg[section][key] = "1"
        path = tmp_path / "run.ini"
        with open(path, "w") as fh:
            cfg.write(fh)
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_PARSE
        assert f"unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section,key", [
        ("compat", "verify", "order"), ("compat", "verify", "boundary_order"),
    ])
    def test_fractional_integer_key_is_a_parse_error(self, tmp_path, capsys, command,
                                                     section, key):
        # int() used to truncate 2.5 to 2
        cfg = configparser.ConfigParser()
        cfg.read_string(SMALL_CONFIG)
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg[section][key] = "2.5"
        path = tmp_path / "run.ini"
        with open(path, "w") as fh:
            cfg.write(fh)
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_PARSE
        assert f"[{section}] {key}:" in capsys.readouterr().err

    def test_unknown_nonlinearity_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nnonlinearity = quintic\n")
        with pytest.raises(cli.ParseError):
            solver.solver_config_from(solver.read_config(str(path)))

    def test_empty_config_gives_the_default_run(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert solver.solver_config_from(solver.read_config(str(path))) == solver.SolverConfig()


class TestTransform:
    def test_forward_round_trip(self, tmp_path):
        inp = tmp_path / "points.csv"
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [10.0, 0.5]])
        np.savetxt(inp, pts, delimiter=",")
        out = tmp_path / "fwd"
        code = cli.main(["transform", "--input", str(inp), "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out / "transformed.csv", delimiter=",", skiprows=1)
        t, r = pts.T
        want = np.column_stack([*geometry.einstein_coords(t, r), geometry.omega_minkowski(t, r)])
        assert np.allclose(rows[:, 2:], want, rtol=0, atol=1e-12)

    def test_backward_failures_marked_nan(self, tmp_path, capsys):
        inp = tmp_path / "points.csv"
        np.savetxt(inp, np.array([[0.5, 0.5], [3.0, 3.0]]), delimiter=",")
        out = tmp_path / "bwd"
        code = cli.main(
            ["transform", "--input", str(inp), "--out", str(out), "--backward"]
        )
        assert code == cli.EXIT_DOMAIN  # the second row lies beyond the diamond
        rows = np.loadtxt(out / "transformed.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows[0]))
        assert np.all(np.isnan(rows[1, 2:]))

    def _mixed(self, tmp_path, capsys, lines, backward):
        inp = tmp_path / "mixed.csv"
        inp.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / "mixed"
        argv = ["transform", "--input", str(inp), "--out", str(out)]
        code = cli.main(argv + (["--backward"] if backward else []))
        rows = np.loadtxt(out / "transformed.csv", delimiter=",", skiprows=1, ndmin=2)
        doc = configparser.ConfigParser()
        doc.read(out / "manifest.ini")
        return code, rows, capsys.readouterr().err.splitlines(), doc["verdicts"]["rows_failed"]

    def test_mixed_forward_rows(self, tmp_path, capsys):
        code, rows, err, failed = self._mixed(
            tmp_path, capsys, ["0,1", "1,0", "2,-1", "nan,1", "inf,0"], backward=False)
        assert code == cli.EXIT_DOMAIN and failed == "3"
        assert err == ["row 2: radial coordinate must be nonnegative, got -1.0",
                       "row 3: t must be finite, got nan",
                       "row 4: t must be finite, got inf"]
        assert np.allclose(rows[:2], [[0.0, 1.0, 0.0, math.pi / 2, 1.0],
                                      [1.0, 0.0, math.pi / 2, 0.0, 1.0]], rtol=0, atol=1e-15)
        assert np.array_equal(rows[2:, :2], [[2.0, -1.0], [np.nan, 1.0], [np.inf, 0.0]],
                              equal_nan=True)
        assert np.all(np.isnan(rows[2:, 2:]))

    def test_forward_rows_name_t_before_r(self, tmp_path, capsys):
        code, rows, err, failed = self._mixed(
            tmp_path, capsys, ["3,inf", "1,nan", "nan,inf", "-inf,-1", "2,-inf"], backward=False)
        assert code == cli.EXIT_DOMAIN and failed == "5"
        assert err == ["row 0: r must be finite, got inf",
                       "row 1: r must be finite, got nan",
                       "row 2: t must be finite, got nan",
                       "row 3: t must be finite, got -inf",
                       "row 4: r must be finite, got -inf"]
        assert np.all(np.isnan(rows[:, 2:]))

    def test_forward_row_whose_time_rounds_to_pi_is_flagged(self, tmp_path, capsys):
        # arctan(t +- r) both round to pi/2 beyond t ~ 1e16: T = pi, outside (-pi, pi)
        code, rows, err, failed = self._mixed(
            tmp_path, capsys, ["1,0", "1e17,0", "-1e17,3"], backward=False)
        assert code == cli.EXIT_DOMAIN and failed == "2"
        assert err == [f"row 1: T must lie in (-pi, pi), got {math.pi!r}",
                       f"row 2: T must lie in (-pi, pi), got {-math.pi!r}"]
        assert np.all(np.isfinite(rows[0])) and np.all(np.isnan(rows[1:, 2:]))

    def test_mixed_backward_rows(self, tmp_path, capsys):
        code, rows, err, failed = self._mixed(
            tmp_path, capsys, [f"0,{math.pi / 2!r}", f"{math.pi / 2!r},0", "0.5,4",
                               "2,1.5", "nan,1"], backward=True)
        assert code == cli.EXIT_DOMAIN and failed == "3"
        assert err == ["row 2: R must lie in [0, pi], got 4.0",
                       "row 3: event (T=2.0, R=1.5) lies on or beyond null infinity "
                       "(|T| + R >= pi)",
                       "row 4: T must be finite, got nan"]
        assert np.allclose(rows[:2, 2:], [[0.0, 1.0], [1.0, 0.0]], rtol=0, atol=1e-15)
        assert np.all(np.isnan(rows[2:, 2:]))

    @pytest.mark.parametrize("T", [10.0, -10.0, math.pi, -math.pi, 4.0])
    def test_backward_row_outside_the_cylinder_time_range(self, tmp_path, capsys, T):
        code, rows, err, failed = self._mixed(tmp_path, capsys, [f"{T!r},0.5"], backward=True)
        assert code == cli.EXIT_DOMAIN and failed == "1"
        assert err == [f"row 0: T must lie in (-pi, pi), got {T}"]
        assert np.all(np.isnan(rows[:, 2:]))

    @given(cells=st.lists(st.tuples(*[st.one_of(
        st.floats(-4.0, 4.0), st.sampled_from([np.nan, np.inf, -np.inf, 0.0, math.pi]))] * 2),
        min_size=1, max_size=12), backward=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_flags_exactly_the_rows_outside_each_maps_domain(self, tmp_path_factory, cells,
                                                             backward):
        tmp = tmp_path_factory.mktemp("rows")
        np.savetxt(tmp / "in.csv", np.array(cells), delimiter=",", fmt="%.17g")
        argv = ["transform", "--input", str(tmp / "in.csv"), "--out", str(tmp)]

        def first_broken_rule(x, y):
            """The error of a rejected row, or None for a row the map takes."""
            if backward:  # the open diamond
                if not math.isfinite(x):
                    return f"T must be finite, got {x}"
                if not -math.pi < x < math.pi:
                    return f"T must lie in (-pi, pi), got {x}"
                if not 0.0 <= y <= math.pi:
                    return f"R must lie in [0, pi], got {y}"
                if abs(x) + y >= math.pi:
                    return f"event (T={x}, R={y}) lies on or beyond null infinity (|T| + R >= pi)"
                return None
            if not math.isfinite(x):
                return f"t must be finite, got {x}"
            if not math.isfinite(y):
                return f"r must be finite, got {y}"
            if y < 0:
                return f"radial coordinate must be nonnegative, got {y}"
            T = math.atan(x + y) + math.atan(x - y)
            return f"T must lie in (-pi, pi), got {T}" if abs(T) >= math.pi else None

        errors = [(i, first_broken_rule(x, y)) for i, (x, y) in enumerate(cells)]
        rejected = [i for i, e in errors if e is not None]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv + (["--backward"] if backward else []))
        assert err.getvalue().splitlines() == [f"row {i}: {e}" for i in rejected
                                               for e in [errors[i][1]]]
        rows = np.loadtxt(tmp / "transformed.csv", delimiter=",", skiprows=1, ndmin=2)
        assert list(np.flatnonzero(np.isnan(rows[:, 2]))) == rejected
        assert np.all(np.isfinite(np.delete(rows[:, 2:], rejected, axis=0)))
        assert code == (cli.EXIT_DOMAIN if rejected else cli.EXIT_OK)

    @pytest.mark.parametrize("backward", [False, True])
    def test_valid_rows_never_take_the_per_row_path(self, tmp_path, monkeypatch, backward):
        def refuse(*args):
            raise AssertionError("per-row wording called for a valid row")

        monkeypatch.setattr(cli, "_broken_rule", refuse)
        rng = np.random.default_rng(5)
        if backward:
            R = rng.uniform(1e-2, 3.0, 10_000)
            pts = np.column_stack([rng.uniform(-1.0, 1.0, 10_000) * (math.pi - R - 1e-3), R])
        else:
            pts = np.column_stack([rng.uniform(-50, 50, 10_000), rng.uniform(0, 50, 10_000)])
        inp = tmp_path / "points.csv"
        np.savetxt(inp, pts, delimiter=",", fmt="%.17g")
        argv = ["transform", "--input", str(inp), "--out", str(tmp_path / "o")]
        assert cli.main(argv + (["--backward"] if backward else [])) == cli.EXIT_OK
        rows = np.loadtxt(tmp_path / "o" / "transformed.csv", delimiter=",", skiprows=1)
        assert rows.shape == (10_000, 4 if backward else 5) and np.all(np.isfinite(rows))

    def test_malformed_csv_is_a_parse_error(self, tmp_path):
        inp = tmp_path / "bad.csv"
        inp.write_text("not,numbers\nat,all\n")
        code = cli.main(["transform", "--input", str(inp), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_PARSE


class TestCheckNull:
    def test_builtin_q0_prints_lambda(self, capsys):
        assert cli.main(["check-null", "--builtin", "q0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("null, lambda=1")

    def test_builtin_dt_squared_prints_witness(self, capsys):
        assert cli.main(["check-null", "--builtin", "dt-squared"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("non-null")
        assert "witness xi=(" in out

    def test_require_null_verdict_exit(self):
        code = cli.main(["check-null", "--builtin", "dt-squared", "--require-null"])
        assert code == cli.EXIT_VERDICT
        assert cli.main(["check-null", "--builtin", "q01", "--require-null"]) == 0

    def test_form_file_exact_fractions(self, tmp_path, capsys):
        form = tmp_path / "q0.form"
        form.write_text(
            "# the basic null form\n"
            "quadratic 1\n"
            "0 0 0 0 0 1\n"
            "0 0 0 1 1 -1\n"
            "0 0 0 2 2 -1\n"
            "0 0 0 3 3 -1\n"
        )
        assert cli.main(["check-null", "--form", str(form)]) == 0
        assert capsys.readouterr().out.startswith("null")

    @pytest.mark.parametrize("form", ["quadratic 1\n0 0 0 0 0 1e308\n0 0 0 1 2 1.0\n",
                                      "cubic 1\n0 0 0 0 0 1e308\n0 0 1 2 3 1.0\n"],
                             ids=["quadratic", "cubic"])
    def test_overflowing_form_prints_only_its_error(self, tmp_path, form):
        # in a fresh interpreter, where numpy's RuntimeWarnings would reach stderr
        path = tmp_path / "huge.form"
        path.write_text(form)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "penwave.cli", "check-null", "--form",
                               str(path)], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == cli.EXIT_DOMAIN
        assert done.stderr == "error: the classifier's arithmetic overflowed: the residual is NaN\n"

    def test_cubic_form_file(self, tmp_path, capsys):
        # quadric times xi_0: entries k[0,0,j,j,0] = diag
        lines = ["cubic 1"]
        for j, d in enumerate((1, -1, -1, -1)):
            lines.append(f"0 0 {j} {j} 0 {d}")
        form = tmp_path / "cubic.form"
        form.write_text("\n".join(lines) + "\n")
        assert cli.main(["check-null", "--form", str(form)]) == 0
        assert capsys.readouterr().out.startswith("null")

    def test_parse_error_reports_line_number(self, tmp_path, capsys):
        form = tmp_path / "bad.form"
        form.write_text("quadratic 1\n0 0 0 0 0 1\n0 0 0 9 9 1\n")
        assert cli.main(["check-null", "--form", str(form)]) == cli.EXIT_PARSE
        assert "line 3" in capsys.readouterr().err

    def test_zero_denominator_is_a_parse_error(self, tmp_path, capsys):
        form = tmp_path / "bad.form"
        form.write_text("quadratic 1\n0 0 0 0 0 1/0\n")
        assert cli.main(["check-null", "--form", str(form)]) == cli.EXIT_PARSE
        assert "line 2: zero denominator in value '1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, deriv", [("quadratic", "{j} {j}"), ("cubic", "{j} {j} 0")])
    def test_repeated_entry_is_a_parse_error(self, tmp_path, capsys, kind, deriv):
        # a q0-type file whose last line would silently replace the entry of line 2
        comps = "0 0 0" if kind == "quadratic" else "0 0"
        lines = [f"{comps} {deriv.format(j=j)} {d}" for j, d in enumerate((1, -1, -1, -1))]
        form = tmp_path / "repeat.form"
        form.write_text("\n".join([f"{kind} 1", *lines, lines[0][:-1] + "5"]) + "\n")
        assert cli.main(["check-null", "--form", str(form)]) == cli.EXIT_PARSE
        assert f"line 6: entry {lines[0][:-2]} repeats line 2" in capsys.readouterr().err

    def test_bad_header_line_number(self, tmp_path, capsys):
        form = tmp_path / "bad.form"
        form.write_text("# comment\nquartic 1\n")
        assert cli.main(["check-null", "--form", str(form)]) == cli.EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, huge, other", [
        ("quadratic", "0 0 0 0 0 1" + "0" * 309, "0 0 0 1 2 1"),
        ("cubic", "0 0 0 0 0 1" + "0" * 400, "0 0 1 2 3 1")])
    def test_non_null_form_past_the_float_range_reads_inf(self, tmp_path, capsys, kind, huge,
                                                           other):
        # the exact defect and witness symbol pass the float range: they read inf
        form = tmp_path / "huge.form"
        form.write_text(f"{kind} 1\n{huge}\n{other}\n")
        code = cli.main(["check-null", "--form", str(form), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out == ("non-null, residual=inf, witness xi=(1,1,0,0) "
                                           "symbol=inf\n")
        report = json.loads((tmp_path / "o" / "null_report.json").read_text())
        assert report["value"] == math.inf and report["verdict"] == "fail"

    @pytest.mark.parametrize("huge, other", [("1e308", "1.0"), ("1E+308", "1"),
                                             ("100000000000000000000.5", "1")])
    def test_decimal_or_exponent_literal_takes_the_float_path(self, tmp_path, capsys, huge,
                                                              other):
        # a literal with a decimal point or an exponent makes the whole form a float
        # form: the CLI then says what the float classifier says of the same tensor
        form = tmp_path / "float.form"
        form.write_text(f"quadratic 1\n0 0 0 0 0 {huge}\n0 0 0 1 2 {other}\n")
        parsed = cli.parse_form_file(form)
        s = np.zeros((1, 1, 1, 4, 4))
        s[0, 0, 0, 0, 0], s[0, 0, 0, 1, 2] = float(huge), 1.0
        assert parsed.s.dtype == float and np.array_equal(parsed.s, s)
        try:
            verdict, decomp = nullform.check_null_semilinear(nullform.QuadraticFormSpec(s=s))
            want = (cli.EXIT_OK, ("null" if verdict else "non-null")
                    + f", residual={decomp.residual:.3e}")
        except errors.DomainError as exc:  # the 1e308 form overflows to a NaN residual
            want = (cli.EXIT_DOMAIN, f"error: {exc}\n")
        code = cli.main(["check-null", "--form", str(form)])
        captured = capsys.readouterr()
        assert code == want[0]
        assert (captured.out if code == cli.EXIT_OK else captured.err).startswith(want[1])

    def test_integer_and_fraction_literals_stay_exact(self, tmp_path):
        form = tmp_path / "exact.form"
        form.write_text("quadratic 1\n0 0 0 0 0 -3\n0 0 0 1 1 +1/3\n")
        s = cli.parse_form_file(form).s
        assert s.dtype == object and s[0, 0, 0, 0, 0] == -3 and s[0, 0, 0, 1, 1] == Fraction(1, 3)

    def test_null_form_whose_lambda_passes_the_float_range(self, tmp_path, capsys):
        form = tmp_path / "huge_q0.form"
        form.write_text("quadratic 1\n" + "".join(
            f"0 0 0 {j} {j} {d}{'0' * 400}\n" for j, d in enumerate((1, -1, -1, -1))))
        assert cli.main(["check-null", "--form", str(form)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "null, lambda=inf, residual=0.000e+00\n"

    def test_seed_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["check-null", "--builtin", "q0", "--seed", "1"])
        assert info.value.code == 2

    def test_report_output(self, tmp_path):
        out = tmp_path / "rep"
        assert cli.main(["check-null", "--builtin", "q0", "--out", str(out)]) == 0
        report = json.loads((out / "null_report.json").read_text())
        assert report["verdict"] == "pass"
        # an exact form is null only when its defect is exactly zero
        assert report["threshold"] == 0.0 and report["value"] == 0.0 and report["margin"] == 0.0
        assert (out / "manifest.ini").exists()

    def test_report_threshold_is_the_tolerance_the_verdict_applies(self, tmp_path, monkeypatch):
        # a float q0 scaled by 1e3 with a 1e-8 symmetric defect: the residual exceeds
        # VERDICT_TOL but not VERDICT_TOL times the tensor scale, so the form is null
        s = np.zeros((1, 1, 1, 4, 4))
        s[0, 0, 0] = 1e3 * np.diag([1.0, -1.0, -1.0, -1.0])
        s[0, 0, 0, 1, 2] = s[0, 0, 0, 2, 1] = 1e-8
        monkeypatch.setattr(cli, "parse_form_file", lambda path: nullform.QuadraticFormSpec(s=s))
        out = tmp_path / "rep"
        assert cli.main(["check-null", "--form", "scaled.form", "--out", str(out)]) == 0
        report = json.loads((out / "null_report.json").read_text())
        assert report["verdict"] == "pass" and report["value"] > nullform.VERDICT_TOL
        assert report["threshold"] == pytest.approx(nullform.VERDICT_TOL * np.linalg.norm(s))
        assert report["margin"] == report["threshold"] - report["value"] > 0.0


class TestCompatCommand:
    def test_compatible_run(self, config_path, tmp_path, capsys):
        out = tmp_path / "compat"
        code = cli.main(["compat", "--config", config_path, "--out", str(out)])
        assert code == 0
        assert (out / "jet.csv").exists()
        report = json.loads((out / "compat_report.json").read_text())
        assert report["verdict"] == "pass"
        assert "order 4" in capsys.readouterr().out

    def test_incompatible_data_fails_verdict(self, tmp_path):
        path = tmp_path / "bad_data.ini"
        path.write_text(SMALL_CONFIG + "\n[data]\ncenter = 0.2\nwidth = 0.5\n")
        out = tmp_path / "compat"
        code = cli.main(["compat", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_VERDICT


class TestSimulateCommand:
    def test_simulate_writes_manifest_last(self, config_path, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", config_path, "--out", str(out)]) == 0
        manifest = configparser.ConfigParser()
        manifest.read(out / "manifest.ini")
        assert manifest["manifest"]["command"] == "simulate"
        assert manifest["verdicts"]["completed"] == "True"
        listed = {manifest["outputs"][k] for k in manifest["outputs"]}
        for p in listed:
            assert (tmp_path / p).exists() or __import__("os").path.exists(p)
        assert (out / "monitors.csv").exists()

    @pytest.mark.parametrize("every", ["nan", "-1.0"])
    def test_bad_snapshot_spacing_fails_before_the_run(self, tmp_path, capsys, monkeypatch, every):
        path = tmp_path / "run.ini"
        path.write_text(SMALL_CONFIG.replace("snapshot_every = 2.0", f"snapshot_every = {every}"))
        monkeypatch.setattr(solver, "run", None)  # the check comes first
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == (f"error: [output] snapshot_every must be finite "
                                           f"and >= 0, got {float(every)}\n")
        assert not (tmp_path / "o").exists()

    def test_invalid_grid_is_a_domain_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nt_max = 50\nr_max = 10\n")
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_DOMAIN


def _as_csv_store(run_dir):
    """Turn a store into one of the layout before .npy frames: a CSV file per frame."""
    for path in run_dir.glob("*.npy"):
        path.unlink()
    (run_dir / "frame_t0000.000000.csv").write_text("r,u,u_t\n0.2,0,0\n")


def _with_value(path, index, value):
    """Write one value into a stored array: a .npy file or a CSV file under one header line."""
    if path.suffix == ".csv":
        header = path.read_text().splitlines()[0]
        array = np.loadtxt(path, delimiter=",", skiprows=1)
        array[index] = value
        np.savetxt(path, array, delimiter=",", header=header, comments="")
    else:
        array = np.load(path)
        array[index] = value
        np.save(path, array)


class TestVerifyCommand:
    def test_identity_omega(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = cli.main(["verify", "--check", "identity-omega", "--out", str(out)])
        assert code == 0
        assert "-> pass" in capsys.readouterr().out
        report = json.loads((out / "verify_identity-omega.json").read_text())
        assert report["value"] < 1e-12

    def test_boundary_geometry(self):
        assert cli.main(["verify", "--check", "boundary-geometry"]) == 0

    def test_vanishing_order(self):
        assert cli.main(["verify", "--check", "vanishing-order"]) == 0

    def test_unknown_check_is_a_parse_error(self, capsys):
        assert cli.main(["verify", "--check", "bogus"]) == cli.EXIT_PARSE
        assert "unknown check" in capsys.readouterr().err

    def test_trajectory_digest_follows_the_data(self, tmp_path):
        run_dir = tmp_path / "run"

        def simulate(epsilon):
            path = tmp_path / "run.ini"
            path.write_text(SMALL_CONFIG.replace("epsilon = 0.01", f"epsilon = {epsilon}"))
            assert cli.main(["simulate", "--config", str(path), "--out", str(run_dir)]) == 0

        def digest(out):
            report = json.loads((out / "verify_decay.json").read_text())
            return report["inputs_digest"]

        verify = ["verify", "--check", "decay", "--traj", str(run_dir), "--out"]
        simulate(0.01)
        assert cli.main(verify + [str(tmp_path / "a")]) == 0
        # the same stored run verified again, in a fresh interpreter
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "penwave.cli"] + verify + [str(tmp_path / "b")],
                       env=env, check=True, capture_output=True)
        simulate(0.02)
        assert cli.main(verify + [str(tmp_path / "c")]) == 0
        assert digest(tmp_path / "a") == digest(tmp_path / "b")
        assert digest(tmp_path / "a") != digest(tmp_path / "c")

    def test_verify_into_the_run_directory_keeps_the_run_manifest(self, config_path, tmp_path):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--config", config_path, "--out", str(run_dir)]) == 0

        def manifest():
            doc = configparser.ConfigParser()
            doc.read(run_dir / "manifest.ini")
            return {section: dict(doc[section]) for section in doc.sections()}

        before = manifest()
        verify = ["verify", "--check", "decay", "--traj", str(run_dir), "--out", str(run_dir)]
        assert cli.main(verify) == 0
        assert cli.main(verify) == 0  # a second verdict replaces the first
        after = manifest()
        report = str(run_dir / "verify_decay.json")
        assert after["manifest"]["command"] == "simulate"
        assert after["manifest"] == before["manifest"] and after["config"] == before["config"]
        assert after["verdicts"] == {"completed": "True", "decay": "pass"}
        assert list(after["outputs"].values()) == list(before["outputs"].values()) + [report]
        (run_dir / "manifest.ini").write_text("not an ini file\n")
        assert cli.main(verify) == cli.EXIT_PARSE

    def test_energy_prints_and_records_its_headroom(self, config_path, tmp_path, capsys):
        out = tmp_path / "v"
        assert cli.main(["verify", "--check", "energy", "--config", config_path,
                         "--out", str(out)]) == 0
        report = json.loads((out / "verify_energy.json").read_text())
        assert 0.0 < report["headroom"] < 1.0  # the linear field decays: rhs stays above lhs
        assert report["margin"] == report["threshold"] - report["value"]
        assert (f"margin={report['margin']:.6g} headroom={report['headroom']:.6g} -> pass"
                in capsys.readouterr().out)

    def test_identity_checks_digest_their_evaluation_points(self, monkeypatch):
        def digest(inputs):
            return analysis.structured_report("", "", inputs, 0.0, 0.0, True)["inputs_digest"]

        def check_digest(name):
            return analysis.CHECKS[name].run()["inputs_digest"]

        T, R = cylinder.battery_points()
        points = {
            "intertwining": np.column_stack([T, R]),
            "commutator": np.column_stack([T, R]),
            "boundary-geometry": (np.linspace(1.0, math.pi - 1e-3, 300), 0.2),
            "vanishing-order": math.pi * 0.5 ** np.arange(3, 13),
        }
        for name, inputs in points.items():
            assert check_digest(name) == digest(inputs), name
        # move one evaluation point of each check
        moved = T.copy()
        moved[7] += 1e-3
        monkeypatch.setattr(cylinder, "battery_points", lambda: (moved, R))
        T, eps = analysis.BOUNDARY_T.copy(), analysis.VANISHING_EPS.copy()
        T[50] += 1e-4
        eps[0] *= 1.01
        monkeypatch.setattr(analysis, "BOUNDARY_T", T)
        monkeypatch.setattr(analysis, "VANISHING_EPS", eps)
        for name, inputs in points.items():
            assert check_digest(name) != digest(inputs), name

    def test_identity_omega_digests_its_evaluation_points(self):
        t, r = np.random.default_rng(0).uniform(0.0, 50.0, size=(10_000, 2)).T
        expected = analysis.structured_report("", "", (t, r), 0.0, 0.0, True)["inputs_digest"]
        assert analysis.CHECKS["identity-omega"].run()["inputs_digest"] == expected

    def test_seed_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--check", "identity-omega", "--seed", "1"])
        assert info.value.code == 2

    def test_manifest_clock_covers_the_check(self, tmp_path, monkeypatch):
        def slow_check(_):
            time.sleep(0.05)
            return 0, 0.0, True, {}

        monkeypatch.setitem(analysis.CHECKS, "identity-omega", analysis.Check(
            "identity-omega", "sleep", "nothing", 1.0, "<", slow_check))
        out = tmp_path / "v"
        assert cli.main(["verify", "--check", "identity-omega", "--out", str(out)]) == 0
        doc = configparser.ConfigParser()
        doc.read(out / "manifest.ini")
        assert float(doc["manifest"]["wall_clock_s"]) >= 0.05

    def test_trajectory_checks_need_a_source(self):
        assert cli.main(["verify", "--check", "decay"]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("name", sorted(analysis.CHECKS))
    def test_report_equals_the_in_process_table_call(self, name, short_linear, tmp_path):
        check = analysis.CHECKS[name]
        argv = ["verify", "--check", name, "--out", str(tmp_path)]
        source = None
        if check.reads != "nothing":
            argv += ["--config", short_linear]
            source = solver.run(solver.solver_config_from(solver.read_config(short_linear)))
        if check.reads == "field":
            source = solver.transform_to_cylinder(source, solver.CylinderGrid())
        code = cli.main(argv)
        report = json.loads((tmp_path / f"verify_{name}.json").read_text())
        assert report == check.run(source)
        assert code == (cli.EXIT_OK if report["verdict"] == "pass" else cli.EXIT_VERDICT)
        below = report["threshold"] - report["value"]
        assert report["margin"] == (below if check.direction.startswith("<") else -below)
        assert report["margin"] >= 0 or report["verdict"] == "fail"

    def test_morawetz_passes_a_short_linear_run_on_its_extinct_branch(self, short_linear,
                                                                       tmp_path, capsys):
        argv = ["verify", "--check", "morawetz", "--config", short_linear, "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert "branch=extinct" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_morawetz.json").read_text())
        assert report["branch"] == "extinct" and report["t_extinct"] < 5.0
        assert report["value"] > 0.0 and report["r_squared"] >= 0.95

    def test_morawetz_fails_a_flat_local_energy(self, short_linear, tmp_path):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--config", short_linear, "--out", str(run_dir)]) == 0
        monitors = run_dir / "monitors.csv"
        header, *rows = monitors.read_text().splitlines()
        flat = [row.split(",") for row in rows]
        for cells in flat:
            cells[2] = "1e-3"  # the E_local column
        monitors.write_text("\n".join([header] + [",".join(c) for c in flat]) + "\n")
        out = tmp_path / "v"
        argv = ["verify", "--check", "morawetz", "--traj", str(run_dir), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VERDICT
        report = json.loads((out / "verify_morawetz.json").read_text())
        assert report["branch"] == "literal" and report["value"] == pytest.approx(0.0, abs=1e-9)

    def test_morawetz_needs_a_run_that_reaches_its_window(self, tmp_path, capsys):
        path = tmp_path / "short.ini"
        path.write_text(SHORT_LINEAR_CONFIG.replace("t_max = 8.0", "t_max = 4.0"))
        code = cli.main(["verify", "--check", "morawetz", "--config", str(path)])
        assert code == cli.EXIT_DOMAIN
        assert "window (5.0, 30.0) holds 0 points" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda text: text.replace("[trajectory]\ncompleted = True\n", ""),
         "No section: 'trajectory'"),
        (lambda text: text.replace("completed = True", "completed = maybe"),
         "Not a boolean: maybe"),
    ])
    def test_store_without_a_completed_verdict_is_a_parse_error(self, config_path, tmp_path,
                                                                capsys, edit, message):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--config", config_path, "--out", str(run_dir)]) == 0
        meta = run_dir / "trajectory.ini"
        edited = edit(meta.read_text())
        assert edited != meta.read_text()
        meta.write_text(edited)
        code = cli.main(["verify", "--check", "decay", "--traj", str(run_dir)])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert str(meta) in err and message in err

    @pytest.mark.parametrize("name,edit", [
        ("r.npy", _as_csv_store),
        ("u.npy", lambda d: (d / "u.npy").write_bytes((d / "u.npy").read_bytes()[:-8])),
        ("u_t.npy", lambda d: (d / "u_t.npy").write_bytes((d / "u_t.npy").read_bytes()[:40])),
        ("times.npy", lambda d: np.save(d / "times.npy", np.array([0.0, "2"], dtype=object),
                                        allow_pickle=True)),
        ("r.npy", lambda d: (d / "r.npy").write_bytes(pickle.dumps([0.2, 0.21]))),
        ("r.npy", lambda d: np.save(d / "r.npy", np.load(d / "r.npy").astype(np.float32))),
        ("u.npy", lambda d: np.save(d / "u.npy", np.load(d / "u.npy")[:-1])),
        ("u_t.npy", lambda d: np.save(d / "u_t.npy", np.load(d / "u_t.npy")[:, :-1])),
        ("times.npy", lambda d: np.save(d / "times.npy", np.load(d / "times.npy")[::-1])),
        ("times.npy", lambda d: np.save(d / "times.npy", [0.0, np.nan, 4.0])),
        ("times.npy", lambda d: np.save(d / "times.npy", [0.0, 2.0, np.inf])),
        ("u.npy", lambda d: _with_value(d / "u.npy", (1, 40), np.nan)),
        ("u_t.npy", lambda d: _with_value(d / "u_t.npy", (2, 0), -np.inf)),
        ("r.npy", lambda d: _with_value(d / "r.npy", (-1,), np.inf)),
        ("r.npy", lambda d: np.save(d / "r.npy", np.load(d / "r.npy")[::-1])),
        ("monitors.csv", lambda d: (d / "monitors.csv").unlink()),
        ("monitors.csv", lambda d: _with_value(d / "monitors.csv", (3, 2), np.nan)),
        ("monitors.csv", lambda d: np.savetxt(d / "monitors.csv", np.ones((5, 9)), delimiter=",",
                                              header="a column short", comments="")),
    ])
    def test_bad_store_is_a_parse_error_naming_the_file(self, config_path, tmp_path, capsys,
                                                         name, edit):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--config", config_path, "--out", str(run_dir)]) == 0
        assert len(np.load(run_dir / "times.npy")) == 3  # t = 0, 2 and 4
        edit(run_dir)
        capsys.readouterr()
        code = cli.main(["verify", "--check", "decay", "--traj", str(run_dir)])
        assert code == cli.EXIT_PARSE
        assert str(run_dir / name) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--check", "identity-omega", "--config", "/nonexistent.ini"],
        ["--check", "identity-omega", "--traj", "/nonexistent"],
        ["--check", "commutator", "--sigma", "7"],
        ["--check", "morawetz", "--sigma", "0.25", "--config", "{config}"],
    ])
    def test_flags_the_check_would_ignore_are_parse_errors(self, argv, config_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the check ran")

        monkeypatch.setattr(analysis.Check, "run", refuse)
        argv = [arg.format(config=config_path) for arg in argv]
        assert cli.main(["verify"] + argv) == cli.EXIT_PARSE

    def test_traj_and_config_together_are_rejected(self, config_path, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--check", "decay", "--traj", "/nonexistent",
                      "--config", config_path])
        assert info.value.code == cli.EXIT_PARSE
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["decay", "weighted-norms"])
    @pytest.mark.parametrize("sigma", ["0", "7", "nan"])
    def test_out_of_range_sigma_is_rejected_before_the_run_is_read(self, check, sigma, capsys):
        code = cli.main(["verify", "--check", check, "--sigma", sigma,
                         "--traj", "/nonexistent"])
        assert code == cli.EXIT_DOMAIN
        assert "sigma must lie in (0, 1]" in capsys.readouterr().err


class TestExitCodeMapping:
    def test_error_to_exit_code_table(self):
        assert cli._exit_code(cli.ParseError("x")) == cli.EXIT_PARSE
        assert cli._exit_code(cli.StabilityError("x")) == cli.EXIT_STABILITY
        assert cli._exit_code(cli.NaNError("x")) == cli.EXIT_NAN
        assert cli._exit_code(cli.CoverageError("x")) == cli.EXIT_COVERAGE
        assert cli._exit_code(errors.ConfigError("x")) == cli.EXIT_DOMAIN
        assert cli._exit_code(errors.FitError("x")) == cli.EXIT_DOMAIN
