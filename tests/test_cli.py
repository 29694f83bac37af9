"""Command-line behavior: output contracts, exit statuses, seed precedence."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapdyn
from gapdyn import (
    OscillatorParams,
    OscState,
    ScenarioConfig,
    analytic_trajectory,
    standard_normals,
    write_trajectory_csv,
)
from gapdyn.cli import main
from gapdyn.integrate import _STEPS


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        for token in line.split():
            key, _, value = token.partition("=")
            pairs[key] = value
    return pairs


@pytest.fixture
def config_file(tmp_path):
    def make(text=""):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        return str(path)

    return make


class TestClassify:
    def test_exact_output_line(self, capsys):
        code, out, err = _run(capsys, ["classify", "--gamma", "4.0", "--alpha", "1.0"])
        assert code == 0
        assert out == "regime=over-damped discriminant=12\n"
        assert err == ""

    def test_under_damped(self, capsys):
        code, out, _ = _run(capsys, ["classify", "--gamma", "0.5", "--alpha", "4.0"])
        assert code == 0
        assert _kv(out)["regime"] == "under-damped"
        assert float(_kv(out)["discriminant"]) == -15.75

    @pytest.mark.parametrize(
        "gamma, alpha, line",
        [
            ("1e308", "1e308", "regime=over-damped discriminant=inf"),
            ("1.5e154", "1e308", "regime=under-damped discriminant=-1.75e+308"),
            ("1.4e154", "5e307", "regime=under-damped discriminant=-4e+306"),
            ("2e154", "1e308", "regime=critically-damped discriminant=0"),
        ],
    )
    def test_discriminant_past_the_float_range(self, capsys, gamma, alpha, line):
        code, out, err = _run(capsys, ["classify", "--gamma", gamma, "--alpha", alpha])
        assert (code, out, err) == (0, line + "\n", "")

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = _run(capsys, ["classify", "--gamma", "-1.0", "--alpha", "1.0"])
        assert code == 2
        assert err.startswith("error=InvariantViolation")


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 1
        assert err.startswith("error=Usage")

    def test_unknown_flag(self, capsys):
        code, _, err = _run(capsys, ["classify", "--gamma", "1", "--alpha", "1", "--wat"])
        assert code == 1
        assert err.startswith("error=Usage")

    def test_missing_required_flag(self, capsys):
        code, _, err = _run(capsys, ["classify", "--gamma", "1"])
        assert code == 1
        assert err.startswith("error=Usage")

    def test_non_numeric_flag_value(self, capsys):
        code, _, err = _run(capsys, ["classify", "--gamma", "fast", "--alpha", "1"])
        assert code == 1
        assert err.startswith("error=Usage")


class TestSimulate:
    def test_default_scenario_metrics(self, capsys, config_file):
        code, out, err = _run(capsys, ["simulate", "--config", config_file()])
        assert code == 0
        assert err == ""
        pairs = _kv(out)
        assert set(pairs) == {"settling_time", "overshoot", "zero_crossings", "terminal_abs"}
        assert float(pairs["terminal_abs"]) < 0.05
        assert pairs["zero_crossings"] == "0"

    def test_csv_has_header_plus_samples(self, capsys, config_file, tmp_path):
        out_csv = tmp_path / "run.csv"
        code, _, _ = _run(
            capsys, ["simulate", "--config", config_file(), "--out", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,y,ydot,eps"
        assert len(lines) == 202

    def test_svg_written(self, capsys, config_file, tmp_path):
        svg = tmp_path / "run.svg"
        code, _, _ = _run(
            capsys, ["simulate", "--config", config_file(), "--svg", str(svg)]
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "critically-damped" in text

    @pytest.mark.parametrize("text", [
        "gamma = 0\nalpha = 0.1\ndt = 1.0\nt_end = 14898\n",
        "gamma = 0\nalpha = 1\ny0 = 1e20\ndt = 1e-10\nt_end = 1e-7\n",
    ], ids=["y-span-past-max", "y-flat-at-1e20"])
    def test_svg_of_extreme_path_is_finite(self, config_file, tmp_path, text):
        # A fresh process, so that a numpy warning reaches stderr instead of
        # pytest's warning capture.
        svg = tmp_path / "run.svg"
        src = str(Path(gapdyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "gapdyn.cli", "simulate", "--config", config_file(text),
             "--svg", str(svg)],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        body = svg.read_text()
        assert "nan" not in body and "inf" not in body

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, ["simulate", "--config", str(tmp_path / "absent.cfg")]
        )
        assert code == 2
        assert err.startswith("error=IoError")

    def test_bad_config_reports_line(self, capsys, config_file):
        code, _, err = _run(
            capsys, ["simulate", "--config", config_file("gamma = 1\nwat = 3\n")]
        )
        assert code == 2
        assert err.startswith("error=UnknownKey")
        assert "line 2" in err

    def test_non_utf8_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"gamma = 1.0\n\xc3\x28 = 2\n")
        code, out, err = _run(capsys, ["simulate", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=BadEncoding")

    @pytest.mark.parametrize("text, detail", [
        ("y0 = nan\n", "y0 must be finite, got nan"),
        ("ydot0 = inf\n", "ydot0 must be finite, got inf"),
    ])
    def test_bad_value_names_its_config_key(self, capsys, config_file, text, detail):
        code, out, err = _run(capsys, ["simulate", "--config", config_file(text)])
        assert (code, out) == (2, "")
        assert err == f"error=InvariantViolation detail={detail}\n"

    def test_divergent_scenario_exit_3(self, capsys, config_file):
        cfg = config_file("gamma = 50.0\ny0 = 1e300\ndt = 0.1\nt_end = 20\n")
        code, _, err = _run(capsys, ["simulate", "--config", cfg])
        assert code == 3
        assert err.startswith("error=Divergence")

    def test_rk4_divergent_scenario_exit_3(self, capsys, config_file):
        cfg = config_file("integrator = rk4\ngamma = 50\nalpha = 1\ny0 = 1e300\n")
        code, out, err = _run(capsys, ["simulate", "--config", cfg])
        assert code == 3
        assert out == ""
        # 9, not 8: the affine map forms no stage values, which overflowed at 8
        assert err == "error=Divergence detail=non-finite state at step 9\n"

    def test_rk4_overflowing_step_map_exit_3(self, capsys, config_file):
        # gamma*dt = 1e99 overflows an entry of RK4's step map, so even the
        # rest state at zero forcing turns nan (0*inf) at node 1
        cfg = config_file("integrator = rk4\ngamma = 1e100\ny0 = 0\nydot0 = 0\n")
        code, out, err = _run(capsys, ["simulate", "--config", cfg])
        assert (code, out) == (3, "")
        assert err == "error=Divergence detail=non-finite state at step 1\n"

    @pytest.mark.parametrize("y0", ["1", "-1"])
    def test_overshoot_does_not_depend_on_the_sign(self, capsys, config_file, y0):
        cfg = config_file(f"gamma = 0.6\nalpha = 2\nintegrator = rk4\ny0 = {y0}\n")
        code, out, err = _run(capsys, ["simulate", "--config", cfg])
        assert (code, err) == (0, "")
        assert out == (
            "settling_time=9.6\novershoot=0.505270726293\n"
            "zero_crossings=9\nterminal_abs=0.00167874245217\n"
        )

    def test_key_of_another_shock_kind_exit_2(self, capsys, config_file):
        cfg = config_file("shock = white-noise\nshock_rho = 0.95\n")
        code, out, err = _run(capsys, ["simulate", "--config", cfg])
        assert (code, out) == (2, "")
        assert err == "error=BadValue detail=line 2: shock_rho does not apply to shock = white-noise\n"

    @pytest.mark.parametrize("scheme", sorted(_STEPS))
    def test_steps_through_the_module_stepper(self, capsys, config_file, monkeypatch, scheme):
        # The stepper is read from gapdyn.integrate when the run steps, so a
        # wrapper put there (a tracer's, say) sees the run.
        import gapdyn.integrate as integrate

        calls = []

        def counted(*args):
            calls.append(args)
            return stepper(*args)

        stepper = getattr(integrate, f"integrate_{scheme}")
        monkeypatch.setattr(integrate, f"integrate_{scheme}", counted)
        code, _, _ = _run(capsys, ["simulate", "--config", config_file(f"integrator = {scheme}\n")])
        assert code == 0
        assert len(calls) == 1

    def test_rk4_integrator_accepted(self, capsys, config_file):
        code, out, _ = _run(
            capsys, ["simulate", "--config", config_file("integrator = rk4")]
        )
        assert code == 0
        assert float(_kv(out)["terminal_abs"]) < 0.01


class TestParserReuse:
    def test_shared_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        import gapdyn.cli as cli

        assert cli._build_parser() is cli._build_parser()
        cfg = ScenarioConfig(gamma=0.5, alpha=1.0)
        path = tmp_path / "series.csv"
        write_trajectory_csv(path, analytic_trajectory(cfg.params(), cfg.initial_state(), cfg.grid()))

        code, out, _ = _run(capsys, ["estimate", "--in", str(path), "--method", "mle"])
        assert code == 0
        assert _kv(out)["method"] == "mle"
        code, out, _ = _run(capsys, ["estimate", "--in", str(path)])
        assert code == 0
        assert _kv(out)["method"] == "ar2"

        code, out, err = _run(capsys, ["classify", "--gamma", "1"])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=Usage")
        code, out, err = _run(capsys, ["classify", "--gamma", "4.0", "--alpha", "1.0"])
        assert code == 0
        assert out == "regime=over-damped discriminant=12\n"
        assert err == ""


class TestEstimate:
    def _write_clean_series(self, tmp_path, gamma=0.5, alpha=1.0):
        cfg = ScenarioConfig(gamma=gamma, alpha=alpha)
        traj = analytic_trajectory(cfg.params(), cfg.initial_state(), cfg.grid())
        path = tmp_path / "series.csv"
        write_trajectory_csv(path, traj)
        return str(path)

    def test_recovers_damping_from_noise_free_run(self, capsys, tmp_path):
        path = self._write_clean_series(tmp_path)
        code, out, err = _run(capsys, ["estimate", "--in", path])
        assert code == 0
        assert err == ""
        pairs = _kv(out)
        assert abs(float(pairs["gamma_hat"]) - 0.5) < 1e-6
        assert abs(float(pairs["alpha_hat"]) - 1.0) < 1e-6
        assert pairs["method"] == "ar2"
        assert pairs["converged"] == "true"
        assert pairs["n_obs"] == "201"

    def test_mle_method_selected(self, capsys, tmp_path):
        path = self._write_clean_series(tmp_path)
        code, out, _ = _run(capsys, ["estimate", "--in", path, "--method", "mle"])
        assert code == 0
        pairs = _kv(out)
        assert pairs["method"] == "mle"
        assert abs(float(pairs["gamma_hat"]) - 0.5) < 1e-3

    def test_unknown_method_is_usage_error(self, capsys, tmp_path):
        path = self._write_clean_series(tmp_path)
        code, _, err = _run(capsys, ["estimate", "--in", path, "--method", "ols"])
        assert code == 1
        assert err.startswith("error=Usage")

    def test_white_noise_series_is_non_stationary(self, capsys, tmp_path):
        draws = standard_normals(0, 201)
        path = tmp_path / "noise.csv"
        rows = ["t,y"]
        rows += ["%.17g,%.17g" % (0.1 * i, draws[i]) for i in range(201)]
        path.write_text("\n".join(rows) + "\n")
        code, _, err = _run(capsys, ["estimate", "--in", str(path)])
        assert code == 3
        assert err.startswith("error=NonStationary")

    @pytest.mark.parametrize("method", ["ar2", "mle"])
    def test_series_scaled_by_1e160_fits(self, capsys, tmp_path, method):
        # squares of these values are past the float range
        eta = standard_normals(5, 300)
        y = [0.0, 0.0]
        for i in range(2, 300):
            y.append(1.2 * y[-1] - 0.5 * y[-2] + eta[i])
        path = tmp_path / "big.csv"
        rows = ["t,y"] + ["%.17g,%.17g" % (0.1 * i, 1e160 * y[i]) for i in range(300)]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = _run(capsys, ["estimate", "--in", str(path), "--method", method])
        assert code == 0
        assert err == ""
        pairs = _kv(out)
        assert math.isfinite(float(pairs["sigma_hat"]))
        assert math.isfinite(float(pairs["loglik"]))

    # A valid series at spacings whose alpha (about 1/dt^2) passes the float
    # range; the fit's printout at 1e-155 is pinned as it was before the
    # MLE and the dt^2 underflow below 1e-162 were mapped.
    TINY_AR2_1E155 = ("gamma_hat=5.14216155058e+154\nalpha_hat=inf\nsigma_hat=3.14054957471e+77\n"
                      "loglik=-420.789050941\nmethod=ar2\nconverged=false\nn_obs=300\n")

    @pytest.mark.parametrize("dt", [1e-155, 1e-160, 1e-200])
    @pytest.mark.parametrize("method", ["ar2", "mle"])
    def test_tiny_spacing_maps_to_the_protocol(self, capsys, tmp_path, method, dt):
        eta = standard_normals(5, 300)
        y = [0.0, 0.0]
        for i in range(2, 300):
            y.append(1.2 * y[-1] - 0.5 * y[-2] + eta[i])
        path = tmp_path / "tiny.csv"
        rows = ["t,y"] + ["%.17g,%.17g" % (dt * i, y[i]) for i in range(300)]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = _run(capsys, ["estimate", "--in", str(path), "--method", method])
        if method == "ar2":
            # alpha_hat past the float range reads inf, and the fit is not converged
            assert (code, err) == (0, "")
            pairs = _kv(out)
            assert pairs["alpha_hat"] == "inf" and pairs["converged"] == "false"
            assert math.isfinite(float(pairs["gamma_hat"]))
            if dt == 1e-155:
                assert out == self.TINY_AR2_1E155
        else:
            # the MLE's boundary candidates cannot be formed
            assert (code, out) == (2, "")
            assert err.startswith("error=InvariantViolation detail=dt = ")
            assert len(err.splitlines()) == 1

    def test_constant_series_is_degenerate(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        rows = ["t,y"] + ["%.1f,0.0" % (0.1 * i) for i in range(10)]
        path.write_text("\n".join(rows) + "\n")
        code, _, err = _run(capsys, ["estimate", "--in", str(path)])
        assert code == 3
        assert err.startswith("error=Degenerate")

    def test_non_utf8_csv_exit_2(self, capsys, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"t,y\n0.0,1.0\n0.1,\xff\xfe\x80\n")
        code, out, err = _run(capsys, ["estimate", "--in", str(path)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=BadEncoding")

    def test_cell_over_csv_field_limit_exit_2(self, capsys, tmp_path):
        # The quote sends the file to the csv reader, whose field limit is
        # 131 072 characters.
        path = tmp_path / "long.csv"
        path.write_text('t,y,note\n0,1,"' + "x" * 200_000 + '"\n1,2,\n')
        code, out, err = _run(capsys, ["estimate", "--in", str(path)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=BadNumber")
        assert "row 2" in err

    # The row reader reads and checks one row at a time, so the first bad row
    # names the error, whether csv cannot split it or float() cannot read it.
    @pytest.mark.parametrize("text, error", [
        ('t,"' + "x" * 200_000 + '"\n0,1\n1,2\n',
         "BadNumber detail={}: row 1: field larger than field limit (131072)"),
        ('t,y\n0,oops\n1,2\n2,"' + "x" * 200_000 + '"\n',
         "BadNumber detail={}: row 2: column 'y' is not a number: 'oops'"),
        ("", "MissingHeader detail={}: empty file"),
    ], ids=["csv-error-in-header", "bad-cell-before-csv-error", "empty-file"])
    def test_first_bad_row_names_the_error(self, capsys, tmp_path, text, error):
        path = tmp_path / "series.csv"
        path.write_text(text)
        code, out, err = _run(capsys, ["estimate", "--in", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error={error.format(path)}\n"

    def test_ragged_csv_exit_2(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,y\n0.0,1.0\n0.1,0.9\n0.3,0.8\n")
        code, _, err = _run(capsys, ["estimate", "--in", str(path)])
        assert code == 2
        assert err.startswith("error=NonUniformSpacing")


class TestImpulse:
    def test_kick_produces_crossings(self, capsys, config_file):
        cfg = config_file("gamma = 0.5\nalpha = 4.0\ny0 = 0\n")
        code, out, _ = _run(
            capsys, ["impulse", "--config", cfg, "--magnitude", "5.0", "--at", "1.0"]
        )
        assert code == 0
        assert int(_kv(out)["zero_crossings"]) >= 1

    def test_impulse_overrides_config_shock(self, capsys, config_file, tmp_path):
        cfg = config_file("shock = white-noise\nshock_seed = 1\n")
        out_csv = tmp_path / "imp.csv"
        code, _, _ = _run(
            capsys,
            ["impulse", "--config", cfg, "--magnitude", "2.0", "--at", "0.0",
             "--out", str(out_csv)],
        )
        assert code == 0
        first = out_csv.read_text().splitlines()[1]
        assert first.split(",")[3] == "2"

    @pytest.mark.parametrize("magnitude", ["4", "-4"])
    def test_kick_from_rest_overshoots(self, capsys, config_file, magnitude):
        # From equilibrium the first swing sets the side, so a kick of either
        # sign reports the same overshoot.
        cfg = config_file("gamma = 0.6\nalpha = 2\nintegrator = rk4\ny0 = 0\n")
        code, out, err = _run(
            capsys, ["impulse", "--config", cfg, "--magnitude", magnitude, "--at", "2.5"]
        )
        assert (code, err) == (0, "")
        assert out == (
            "settling_time=8.3\novershoot=0.106432147766\n"
            "zero_crossings=7\nterminal_abs=0.00131020075127\n"
        )

    def test_kick_outside_grid(self, capsys, config_file):
        code, _, err = _run(
            capsys,
            ["impulse", "--config", config_file(), "--magnitude", "1.0", "--at", "25.0"],
        )
        assert code == 2
        assert err.startswith("error=ImpulseOutsideGrid")


class TestSweep:
    def test_row_count_and_monotone_gamma(self, capsys, config_file):
        code, out, _ = _run(
            capsys,
            ["sweep", "--config", config_file(), "--gamma-from", "0.5",
             "--gamma-to", "4.0", "--gamma-steps", "8"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma,settling_time,overshoot,zero_crossings,terminal_abs"
        assert len(lines) == 9
        gammas = [float(line.split(",")[0]) for line in lines[1:]]
        assert gammas[0] == 0.5
        assert gammas[-1] == 4.0
        assert all(b > a for a, b in zip(gammas, gammas[1:]))

    def test_single_step(self, capsys, config_file):
        code, out, _ = _run(
            capsys,
            ["sweep", "--config", config_file(), "--gamma-from", "2.0",
             "--gamma-to", "2.0", "--gamma-steps", "1"],
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_bad_range(self, capsys, config_file):
        code, _, err = _run(
            capsys,
            ["sweep", "--config", config_file(), "--gamma-from", "3.0",
             "--gamma-to", "1.0", "--gamma-steps", "5"],
        )
        assert code == 2
        assert err.startswith("error=InvariantViolation")

    def test_unrealizable_shock_prints_no_table(self, capsys, config_file):
        cfg = config_file("shock = impulse\nshock_at = 100\n")
        code, out, err = _run(
            capsys,
            ["sweep", "--config", cfg, "--gamma-from", "0.5",
             "--gamma-to", "4.0", "--gamma-steps", "8"],
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=ImpulseOutsideGrid")

    def test_invalid_gamma_prints_no_table(self, capsys, config_file):
        code, out, err = _run(
            capsys,
            ["sweep", "--config", config_file(), "--gamma-from", "-1",
             "--gamma-to", "1", "--gamma-steps", "3"],
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=InvariantViolation")

    # In a fresh process, where no pytest filter catches a numpy warning:
    # each flag is checked before np.linspace could overflow on it.
    @pytest.mark.parametrize("flags, detail", [
        (["--gamma-from", "0", "--gamma-to", "inf", "--gamma-steps", "3"],
         "gamma-to must be finite, got inf"),
        (["--gamma-from", "inf", "--gamma-to", "1", "--gamma-steps", "1"],
         "gamma-from must be finite, got inf"),
        (["--gamma-from=-1e308", "--gamma-to=1e308", "--gamma-steps=3"],
         "gamma-from must be >= 0, got -1e+308"),
        (["--gamma-from", "1", "--gamma-to=-1.7e308", "--gamma-steps", "1"],
         "gamma-to must be >= 0, got -1.7e+308"),
    ])
    def test_unusable_range_flag_is_one_error_line(self, config_file, flags, detail):
        src = str(Path(gapdyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "gapdyn.cli", "sweep", "--config", config_file(), *flags],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error=InvariantViolation detail={detail}\n"

    def test_divergence_at_later_gamma_prints_no_table(self, capsys, config_file):
        # Explicit Euler at dt 0.5 is fine at gamma 0.5 and overflows within
        # 400 steps at gamma 15.25 (per-step growth about |1 - gamma dt|).
        cfg = config_file("integrator = euler\ndt = 0.5\nt_end = 200\n")
        code, out, err = _run(
            capsys,
            ["sweep", "--config", cfg, "--gamma-from", "0.5",
             "--gamma-to", "30", "--gamma-steps", "3"],
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=Divergence")

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--gamma-from", "1",
                                                       "--gamma-to", "2", "--gamma-steps", "3"]])
    def test_overflowing_grid_exit_2(self, capsys, config_file, command):
        cfg = config_file("t_end = 1e300\ndt = 1e-300\n")
        code, out, err = _run(capsys, command[:1] + ["--config", cfg] + command[1:])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=InvariantViolation")

    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    def test_forcing_realized_once(self, capsys, config_file, monkeypatch, integrator):
        import gapdyn.shocks as shocks

        calls = []

        def counted(*args):
            calls.append(args)
            return cli_realize(*args)

        cli_realize = shocks.realize
        monkeypatch.setattr(shocks, "realize", counted)
        cfg = config_file(f"integrator = {integrator}\nshock = ar1\nshock_seed = 3\n")
        code, out, _ = _run(
            capsys,
            ["sweep", "--config", cfg, "--gamma-from", "0.5",
             "--gamma-to", "4.0", "--gamma-steps", "6"],
        )
        assert code == 0
        assert len(out.splitlines()) == 7
        assert len(calls) == 1

    def test_zero_steps(self, capsys, config_file):
        code, _, err = _run(
            capsys,
            ["sweep", "--config", config_file(), "--gamma-from", "1.0",
             "--gamma-to", "2.0", "--gamma-steps", "0"],
        )
        assert code == 2
        assert err.startswith("error=InvariantViolation")

    # numpy refuses both counts before allocating: one as larger than any
    # array, the other inside linspace's index arithmetic.
    @pytest.mark.parametrize("steps", ["18446744073709551616", "9223372036854775807"])
    def test_step_count_numpy_cannot_grid(self, capsys, config_file, steps):
        code, out, err = _run(
            capsys,
            ["sweep", "--config", config_file(), "--gamma-from", "1.0",
             "--gamma-to", "2.0", "--gamma-steps", steps],
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error=InvariantViolation")
        assert steps in err


class TestOversizedGrid:
    """A grid numpy cannot allocate or index is a data error, not a traceback.

    1e15 nodes need 7.1 PiB, beyond the 128 TiB a 64-bit Linux process can
    map, so the allocation is refused under any overcommit setting; 5e18
    float64 nodes overflow numpy's byte count, and 1e30 its index too.  Each
    command runs in a fresh process.
    """

    @pytest.mark.parametrize("t_end", ["1e15", "5e18", "1e30"])
    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["impulse", "--magnitude", "1", "--at", "0"],
        ["sweep", "--gamma-from", "1", "--gamma-to", "2", "--gamma-steps", "3"],
    ], ids=["simulate", "impulse", "sweep"])
    def test_exit_2_with_one_error_line(self, config_file, command, t_end):
        cfg = config_file(f"t_end = {t_end}\ndt = 1\n")
        src = str(Path(gapdyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "gapdyn.cli", command[0], "--config", cfg, *command[1:]],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error=InvariantViolation detail=")
        assert "n_steps" in proc.stderr


class TestOutOfMemory:
    """A MemoryError anywhere in a command is a data error on one line.

    The allocation that fails is simulated: the layer that would make it
    raises MemoryError, so nothing large is allocated.
    """

    def test_sweep_names_its_size(self, capsys, config_file, monkeypatch):
        def refuse(**kwargs):
            raise MemoryError

        monkeypatch.setattr("gapdyn.oscillator.OscillatorParams", refuse)
        code, out, err = _run(
            capsys,
            ["sweep", "--config", config_file(), "--gamma-from", "1",
             "--gamma-to", "2", "--gamma-steps", "3"],
        )
        assert (code, out) == (2, "")
        assert err == ("error=InvariantViolation detail=cannot allocate 3 gammas"
                       " on a grid of n_steps=201 nodes\n")

    def test_simulate_names_its_size(self, capsys, config_file, monkeypatch):
        def refuse(spec, grid):
            raise MemoryError

        monkeypatch.setattr("gapdyn.shocks.realize", refuse)
        code, out, err = _run(capsys, ["simulate", "--config", config_file()])
        assert (code, out) == (2, "")
        assert err == ("error=InvariantViolation detail=cannot allocate a grid"
                       " of n_steps=201 nodes\n")

    def test_estimate_input_too_large(self, capsys, tmp_path, monkeypatch):
        def refuse(text):
            raise MemoryError

        monkeypatch.setattr("gapdyn.seriesio._read_plain", refuse)
        path = tmp_path / "series.csv"
        path.write_text("t,y\n0,1\n1,2\n2,3\n")
        code, out, err = _run(capsys, ["estimate", "--in", str(path)])
        assert (code, out) == (2, "")
        assert err == "error=InvariantViolation detail=input too large for memory\n"


class TestCheck:
    def test_default_point_has_zero_residuals(self, capsys):
        code, out, _ = _run(capsys, ["check", "--beta", "0.99", "--sigma-c", "2.0"])
        assert code == 0
        pairs = _kv(out)
        assert float(pairs["euler_residual"]) == 0.0
        assert float(pairs["budget_residual"]) == 0.0
        assert float(pairs["profit"]) == 0.0
        assert abs(float(pairs["steady_state_rate"]) - 1.0 / 0.99 + 1.0) < 1e-12

    def test_point_override_moves_residuals(self, capsys):
        code, out, _ = _run(
            capsys,
            ["check", "--beta", "0.99", "--sigma-c", "2.0",
             "--point", "r=0.05,b=2.0"],
        )
        assert code == 0
        pairs = _kv(out)
        assert abs(float(pairs["euler_residual"]) - (1.0 - 0.99 * 1.05)) < 1e-12
        # budget: c + b_next - (1+r) b - w n = 1 - 1.05*2 - 1
        assert abs(float(pairs["budget_residual"]) + 2.1) < 1e-12

    def test_unknown_point_key(self, capsys):
        code, _, err = _run(
            capsys,
            ["check", "--beta", "0.99", "--sigma-c", "2.0", "--point", "q=1.0"],
        )
        assert code == 2
        assert err.startswith("error=UnknownKey")

    def test_bad_point_value(self, capsys):
        code, _, err = _run(
            capsys,
            ["check", "--beta", "0.99", "--sigma-c", "2.0", "--point", "c=fast"],
        )
        assert code == 2
        assert err.startswith("error=BadValue")

    @pytest.mark.parametrize("point, detail", [
        ("c", "point entries must look like key=value, got 'c'"),
        ("c=1,c=2", "duplicate point key 'c'"),
        ("r=0.05,b=1, r = 0.05", "duplicate point key 'r'"),
    ])
    def test_malformed_point_is_bad_value(self, capsys, point, detail):
        code, out, err = _run(
            capsys, ["check", "--beta", "0.99", "--sigma-c", "2.0", "--point", point]
        )
        assert (code, out, err) == (2, "", f"error=BadValue detail={detail}\n")

    @pytest.mark.parametrize("sigma_c, point", [("2.0", "c=1e-200"), ("1e308", "c=0.5")])
    def test_overflowing_residual_prints_nan(self, capsys, sigma_c, point):
        # c^(-sigma_c) overflows to inf on both sides of the Euler condition,
        # and inf - inf is nan: a value to print, not a traceback.
        code, out, err = _run(
            capsys, ["check", "--beta", "0.99", "--sigma-c", sigma_c, "--point", point]
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "euler_residual=nan"

    def test_bad_beta_exit_2(self, capsys):
        code, _, err = _run(capsys, ["check", "--beta", "1.5", "--sigma-c", "2.0"])
        assert code == 2
        assert err.startswith("error=InvariantViolation")

    def test_overflowing_default_rate_names_beta(self, capsys):
        # 1/beta - 1 overflows below beta ~ 5.6e-309; the user set no r.
        code, out, err = _run(capsys, ["check", "--beta", "1e-320", "--sigma-c", "2"])
        assert (code, out) == (2, "")
        assert err == (
            "error=InvariantViolation detail=beta=1e-320 overflows r = 1/beta - 1; "
            "--point r= sets r\n"
        )

    def test_given_rate_runs_at_overflowing_beta(self, capsys):
        code, out, err = _run(
            capsys, ["check", "--beta", "1e-320", "--sigma-c", "2", "--point", "r=0.1"]
        )
        assert (code, err) == (0, "")
        assert _kv(out)["steady_state_rate"] == "inf"


class TestSeedPrecedence:
    CONFIG = "shock = white-noise\nshock_sigma = 0.3\nshock_seed = 1\n"

    def _csv_for(self, capsys, tmp_path, config_file, name, argv_extra=()):
        out_csv = tmp_path / name
        code, _, _ = _run(
            capsys,
            ["simulate", "--config", config_file(self.CONFIG), "--out", str(out_csv),
             *argv_extra],
        )
        assert code == 0
        return out_csv.read_bytes()

    def _reference(self, capsys, tmp_path, seed):
        path = tmp_path / f"ref{seed}.cfg"
        path.write_text(f"shock = white-noise\nshock_sigma = 0.3\nshock_seed = {seed}\n")
        out_csv = tmp_path / f"ref{seed}.csv"
        code, _, _ = _run(
            capsys, ["simulate", "--config", str(path), "--out", str(out_csv)]
        )
        assert code == 0
        return out_csv.read_bytes()

    def test_config_seed_used_when_nothing_else_set(self, capsys, tmp_path, config_file):
        got = self._csv_for(capsys, tmp_path, config_file, "a.csv")
        assert got == self._reference(capsys, tmp_path, 1)

    def test_flag_beats_config(self, capsys, tmp_path, config_file):
        want = self._reference(capsys, tmp_path, 3)
        got = self._csv_for(capsys, tmp_path, config_file, "c.csv",
                            argv_extra=("--seed", "3"))
        assert got == want

    # A shock that draws nothing has no seed to set, so the flag is refused
    # as shock_seed is in such a config.
    @pytest.mark.parametrize("command", [
        ["simulate"], ["sweep", "--gamma-from", "1", "--gamma-to", "2", "--gamma-steps", "3"],
    ], ids=["simulate", "sweep"])
    @pytest.mark.parametrize("config, kind", [
        ("gamma = 0.5\nalpha = 1\n", "none"), ("shock = impulse\n", "impulse"),
    ], ids=["none", "impulse"])
    def test_flag_without_a_seeded_shock_exit_2(self, capsys, config_file, command, config,
                                                kind):
        argv = [command[0], "--config", config_file(config), *command[1:], "--seed", "5"]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error=BadValue detail=--seed does not apply to shock = {kind}\n"

    @pytest.mark.parametrize("value", ["2", "lots"])
    def test_environment_does_not_change_a_run(
        self, capsys, tmp_path, config_file, monkeypatch, value
    ):
        # A run reads its arguments and files only: the retired GAPDYN_SEED
        # variable neither reseeds a shock nor fails a run.
        want = self._reference(capsys, tmp_path, 1)
        monkeypatch.setenv("GAPDYN_SEED", value)
        got = self._csv_for(capsys, tmp_path, config_file, "e.csv")
        assert got == want


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys, config_file, tmp_path):
        cfg = config_file("shock = ar1\nshock_seed = 7\n")
        blobs = []
        for name in ("x", "y"):
            out_csv = tmp_path / f"{name}.csv"
            svg = tmp_path / f"{name}.svg"
            code, _, _ = _run(
                capsys,
                ["simulate", "--config", cfg, "--out", str(out_csv), "--svg", str(svg)],
            )
            assert code == 0
            blobs.append((out_csv.read_bytes(), svg.read_bytes()))
        assert blobs[0] == blobs[1]


class TestInstalledScript:
    def test_console_entry_point(self):
        src = str(Path(gapdyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from gapdyn.cli import main; "
             "sys.exit(main(['classify', '--gamma', '4.0', '--alpha', '1.0']))"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "regime=over-damped discriminant=12\n"

    def test_import_loads_no_scipy(self):
        # start-up time is mostly imports; scipy alone used to cost seconds
        src = str(Path(gapdyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import gapdyn, gapdyn.cli, sys; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
