"""The batched sweep: integrate_batch rows are the scalar steppers' paths
bit for bit, recovery_metrics_block is recovery_metrics row by row, and
`gapdyn sweep` prints what a per-gamma loop over the scalar steppers prints.

Property tests use hypothesis (MacIver et al., "Hypothesis: A new approach
to property-based testing", JOSS 4(43), 2019).
"""

import contextlib
import dataclasses
import io
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gapdyn.cli as cli
import gapdyn.integrate as integrate
from gapdyn import (
    Divergence,
    InvariantViolation,
    OscillatorParams,
    OscState,
    TimeGrid,
    Trajectory,
    integrate_euler,
    integrate_rk4,
    recovery_metrics,
    standard_normals,
)
from gapdyn.errors import _check
from gapdyn.integrate import integrate_batch, recovery_metrics_block, sweep_metrics
from gapdyn.shocks import realize

_SETTINGS = settings(deadline=None, derandomize=True, database=None)
_SCALAR = {"euler": integrate_euler, "rk4": integrate_rk4}


def _reference_metrics(y, times):
    """recovery_metrics' per-row definition from before the block form."""
    outside = np.abs(y) > 0.05
    settling = float(times[outside][-1]) if outside.any() else 0.0
    signs = np.sign(y)
    signs = signs[signs != 0.0]
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    overshoot = float(np.max(-signs[0] * y)) if crossings >= 1 else 0.0
    return settling, overshoot, crossings, abs(float(y[-1]))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _assert_block_matches_rows(block, times):
    got = recovery_metrics_block(block, times)
    for j, row in enumerate(block):
        want = _reference_metrics(row, times)
        assert _bits([col[j] for col in got]) == _bits(want), (j, row)
        assert int(got[2][j]) == want[2]
        grid = TimeGrid(1.0, len(row))
        m = recovery_metrics(Trajectory(grid, row, np.zeros(len(row)), np.zeros(len(row))))
        assert _bits(dataclasses.astuple(m)) == _bits(_reference_metrics(row, grid.times()))


class TestBlockMetricsEdges:
    TIMES = np.arange(11) * 0.5

    def test_zeros_between_sign_changes(self):
        y = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 2.0, 0.0, -0.0, 0.0, -3.0, 0.0])
        _assert_block_matches_rows(y[None, :], self.TIMES)
        assert recovery_metrics_block(y[None, :], self.TIMES)[2][0] == 3

    # The first nonzero sample sets the side: from a zero start the path
    # rises to 1, so it overshoots to -2; from -1 it overshoots to 1.
    @pytest.mark.parametrize("y0, overshoot", [(0.0, 2.0), (-0.0, 2.0), (-1.0, 1.0)],
                             ids=["0.0", "-0.0", "-1.0"])
    def test_start_not_positive(self, y0, overshoot):
        y = np.array([y0, 1.0, -1.0, 0.5, 0.0, -2.0, 0.3, 0.0, 0.0, 0.1, -0.2])
        _assert_block_matches_rows(y[None, :], self.TIMES)
        assert recovery_metrics_block(y[None, :], self.TIMES)[1][0] == overshoot

    def test_never_leaves_band(self):
        y = np.array([0.01, -0.02, 0.03, 0.0, 0.04, -0.05, 0.05, 0.0, -0.01, 0.0, 0.02])
        _assert_block_matches_rows(y[None, :], self.TIMES)
        assert recovery_metrics_block(y[None, :], self.TIMES)[0][0] == 0.0

    @pytest.mark.parametrize("tail", [0.0, -0.0])
    def test_exactly_zero_tail(self, tail):
        y = np.array([1.0, -0.5, 0.2, tail, tail, tail, tail, tail, tail, tail, tail])
        _assert_block_matches_rows(y[None, :], self.TIMES)
        got = recovery_metrics_block(y[None, :], self.TIMES)
        assert got[3][0] == 0.0 and got[2][0] == 2

    def test_rows_differ_in_all_four_metrics(self):
        block = np.array([
            [1.0, 0.5, -0.3, 0.2, -0.1, 0.04, 0.0, 0.0, 0.0, 0.0, 0.0],
            [2.0, 1.0, -0.6, -0.2, 0.1, 0.07, 0.0, 0.0, 0.0, 0.0, 0.005],
            [0.5, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.01],
            [1.5, 0.0, -0.9, 0.0, 0.8, 0.0, -0.07, 0.0, 0.2, -0.3, 0.02],
        ])
        _assert_block_matches_rows(block, self.TIMES)
        got = recovery_metrics_block(block, self.TIMES)
        for column in got:
            assert len(set(column.tolist())) == len(block)

    @settings(_SETTINGS, max_examples=200)
    @given(
        arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 30)), elements=st.sampled_from(
            [0.0, -0.0, 0.04, -0.05, 0.06, 1.0, -2.5, 1e-300]) | st.floats(-3.0, 3.0)),
    )
    def test_any_block_matches_rows(self, block):
        _assert_block_matches_rows(block, 0.25 * np.arange(block.shape[1]) + 3.0)

    @settings(_SETTINGS, max_examples=200)
    @given(
        arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 30)), elements=st.sampled_from(
            [0.0, -0.0, 0.04, -0.05, 1.0, -2.5, 1e-300]) | st.floats(-3.0, 3.0)),
        st.integers(0, 30), st.integers(0, 6), st.sampled_from([0.0, -0.0]),
    )
    def test_negated_block_has_the_same_metrics(self, block, lead, zero_rows, zero):
        # -y solves the model under -eps, so every metric of -y is that of y,
        # after leading zeros of either sign and on all-zero rows too.
        block[:, :lead] = zero
        block[:zero_rows] = zero
        times = 0.25 * np.arange(block.shape[1])
        want = recovery_metrics_block(block, times)
        got = recovery_metrics_block(-block, times)
        assert [_bits(column) for column in got] == [_bits(column) for column in want]


class TestIntegrateBatch:
    GRID = TimeGrid(0.1, 301)
    PARAMS = [OscillatorParams(g, a) for g, a in
              [(0.0, 1.0), (0.3, 2.0), (2.0, 1.0), (2.0 + 1e-12, 1.0), (5.0, 0.5), (40.0, 1.0)]]

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("forcing", ["zero", "noise", "impulse"])
    def test_rows_are_scalar_paths(self, scheme, forcing):
        n = self.GRID.n_steps
        eps = {"zero": np.zeros(n), "noise": 0.3 * standard_normals(9, n),
               "impulse": np.where(np.arange(n) == 40, 2.5, 0.0)}[forcing]
        init = OscState(0.7, -1.3)
        block = integrate_batch(self.PARAMS, init, eps, self.GRID, scheme)
        assert block.shape == (len(self.PARAMS), n)
        for row, p in zip(block, self.PARAMS):
            assert _bits(row) == _bits(_SCALAR[scheme](p, init, eps, self.GRID).y)

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    def test_divergence_names_the_scalar_step(self, scheme):
        grid = TimeGrid(0.5, 401)
        params = [OscillatorParams(g, 1.0) for g in (0.5, 1.0, 30.0, 60.0)]
        init = OscState(1.0, 0.0)
        with pytest.raises(Divergence) as scalar:
            _SCALAR[scheme](params[2], init, np.zeros(401), grid)
        with pytest.raises(Divergence) as batched:
            integrate_batch(params, init, np.zeros(401), grid, scheme)
        assert batched.value.step == scalar.value.step

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    def test_divergence_without_warnings(self, scheme):
        # numpy scalar params (held as Python floats) and (k,) rows that
        # overflow: the overflow must surface as the scalar stepper's
        # Divergence, not as a warning.
        grid = TimeGrid(0.1, 201)
        params = [OscillatorParams(np.float64(g), np.float64(1)) for g in (0.5, 50.0, 2.0)]
        init = OscState(1e300, 0.0)
        with pytest.raises(Divergence) as scalar:
            _SCALAR[scheme](params[1], init, np.zeros(201), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Divergence) as batched:
                integrate_batch(params, init, np.zeros(201), grid, scheme)
        assert batched.value.step == scalar.value.step

    def test_rate_overflow_on_the_last_step(self):
        # One step: accel = -alpha*y overflows, y itself stays finite.
        grid = TimeGrid(1.0, 2)
        params = [OscillatorParams(0.0, 1.0), OscillatorParams(0.0, 1e10)]
        init = OscState(1e300, 0.0)
        with pytest.raises(Divergence) as batched:
            integrate_batch(params, init, np.zeros(2), grid, "euler")
        assert batched.value.step == 1

    def test_unknown_scheme(self):
        want = "scheme must be 'euler' or 'rk4', got 'leapfrog'"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(want)}$"):
            integrate_batch(self.PARAMS, OscState(1.0, 0.0), np.zeros(301), self.GRID, "leapfrog")

    @pytest.mark.parametrize("count", [0, 6])
    @pytest.mark.parametrize(
        "scheme", ["leapfrog", "RK4", None, ["rk4"]], ids=["leapfrog", "RK4", "None", "list"]
    )
    @pytest.mark.parametrize("run", [integrate_batch, sweep_metrics])
    def test_bad_scheme_is_worded_once(self, run, scheme, count):
        want = f"scheme must be 'euler' or 'rk4', got {scheme!r}"
        with pytest.raises(InvariantViolation) as excinfo:
            run(self.PARAMS[:count], OscState(1.0, 0.0), np.zeros(301), self.GRID, scheme)
        assert str(excinfo.value) == want

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    def test_sweep_of_no_parameter_sets(self, scheme):
        init = OscState(1.0, 0.0)
        got = sweep_metrics([], init, np.zeros(301), self.GRID, scheme)
        some = sweep_metrics(self.PARAMS, init, np.zeros(301), self.GRID, scheme)
        assert [(c.shape, c.dtype) for c in got] == [((0,), c.dtype) for c in some]
        with pytest.raises(InvariantViolation):
            sweep_metrics([], init, np.zeros(300), self.GRID, scheme)

    def test_forcing_shape_checked(self):
        with pytest.raises(InvariantViolation):
            integrate_batch(self.PARAMS, OscState(1.0, 0.0), np.zeros(300), self.GRID, "euler")


def _reference_sweep(args):
    """`gapdyn sweep` as a loop over gamma with the scalar steppers."""
    cfg = cli._load_config(args.config, seed_flag=args.seed)
    if args.gamma_steps < 1:
        raise InvariantViolation(f"gamma-steps must be an integer >= 1, got {args.gamma_steps}")
    _check("gamma-from", args.gamma_from, low=0)
    _check("gamma-to", args.gamma_to, low=0)
    if args.gamma_steps > 1 and not (args.gamma_to > args.gamma_from):
        raise InvariantViolation("gamma-to must exceed gamma-from when gamma-steps > 1")
    gammas = np.linspace(args.gamma_from, args.gamma_to, args.gamma_steps)
    variants = [dataclasses.replace(cfg, gamma=float(g)) for g in gammas]
    eps = realize(cfg.shock, cfg.grid())
    rows = ["gamma,settling_time,overshoot,zero_crossings,terminal_abs\n"]
    for g, variant in zip(gammas, variants):
        m = recovery_metrics(cli._integrate(variant, eps))
        rows.append(
            "%.17g,%.17g,%.17g,%d,%.17g\n"
            % (g, m.settling_time, m.overshoot, m.zero_crossings, m.terminal_abs)
        )
    sys.stdout.write("".join(rows))
    return 0


class _ReferenceParser:
    """The CLI parser with the sweep handler swapped for _reference_sweep."""

    def __init__(self, parser):
        self._parser = parser

    def parse_args(self, argv):
        args = self._parser.parse_args(argv)
        args.handler = _reference_sweep
        return args


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _both(argv):
    batched = _main(argv)
    reference_parser = _ReferenceParser(cli._build_parser())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_build_parser", lambda: reference_parser)
        reference = _main(argv)
    return batched, reference


_SHOCKS = st.one_of(
    st.just("shock = none\n"),
    st.builds("shock = impulse\nshock_at = {!r}\nshock_magnitude = {!r}\n".format,
              st.floats(-1.0, 2100.0), st.floats(-5.0, 5.0)),
    st.builds("shock = white-noise\nshock_sigma = {!r}\nshock_seed = {}\n".format,
              st.floats(0.0, 3.0), st.integers(0, 2**64 - 1)),
    st.builds("shock = ar1\nshock_rho = {!r}\nshock_sigma = {!r}\nshock_seed = {}\n".format,
              st.floats(-0.99, 0.99), st.floats(0.0, 3.0), st.integers(0, 2**64 - 1)),
)


@st.composite
def sweeps(draw, tmp_dir):
    """A sweep config (at most 2001 nodes) and its argv (1-40 gammas)."""
    dt = draw(st.sampled_from([0.05, 0.1, 0.5, 1.0]))
    intervals = draw(st.integers(1, 200) | st.integers(1, 2000))
    text = (
        f"integrator = {draw(st.sampled_from(['euler', 'rk4']))}\n"
        f"dt = {dt!r}\nt_end = {intervals * dt!r}\n"
        f"alpha = {draw(st.floats(0.05, 20.0))!r}\n"
        f"y0 = {draw(st.floats(-3.0, 3.0))!r}\nydot0 = {draw(st.floats(-3.0, 3.0))!r}\n"
        + draw(_SHOCKS)
    )
    path = tmp_dir / "sweep.cfg"
    path.write_text(text)
    g_from = draw(st.floats(0.0, 40.0))
    g_to = g_from + draw(st.floats(1e-3, 40.0))
    # One sweep in ten starts at a negative gamma, one has an empty range.
    odd = draw(st.integers(0, 9))
    if odd == 0:
        g_from = -draw(st.floats(1e-300, 0.5))
    elif odd == 1:
        g_to = g_from
    steps = draw(st.integers(1, 40))
    argv = ["sweep", "--config", str(path), f"--gamma-from={g_from!r}",
            f"--gamma-to={g_to!r}", f"--gamma-steps={steps}"]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 1000)))]
    return argv


class TestSweepMatchesScalarLoop:
    @settings(_SETTINGS, max_examples=120)
    @given(data=st.data())
    def test_same_stdout_stderr_and_exit(self, tmp_path_factory, data):
        argv = data.draw(sweeps(tmp_path_factory.mktemp("sweep")))
        batched, reference = _both(argv)
        assert batched == reference

    @settings(_SETTINGS, max_examples=60)
    @given(data=st.data())
    def test_across_gamma_blocks(self, tmp_path_factory, data):
        argv = data.draw(sweeps(tmp_path_factory.mktemp("sweep")))
        # A few columns of a few hundred nodes per block.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrate, "_SWEEP_BLOCK_BYTES", 8 * 600)
            batched, reference = _both(argv)
        assert batched == reference

    def test_first_divergence_in_second_block(self, tmp_path):
        # Euler at dt 0.5: gamma 0.5-6 stays finite over 400 steps, and
        # gamma >= 15 overflows; with two columns a block, gammas 0 and 1
        # fill the first block and the first to diverge is in the second.
        path = tmp_path / "sweep.cfg"
        path.write_text("integrator = euler\ndt = 0.5\nt_end = 200\n")
        argv = ["sweep", "--config", str(path), "--gamma-from", "0.5",
                "--gamma-to", "30", "--gamma-steps", "5"]
        grid = TimeGrid(0.5, 401)
        diverges = []
        for g in np.linspace(0.5, 30.0, 5).tolist():
            try:
                integrate_euler(OscillatorParams(g, 1.0), OscState(1.0, 0.0), np.zeros(401), grid)
                diverges.append(False)
            except Divergence:
                diverges.append(True)
        assert diverges.index(True) == 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrate, "_SWEEP_BLOCK_BYTES", 2 * 8 * 401)
            batched, reference = _both(argv)
        assert batched == reference
        code, out, err = batched
        assert code == 3 and out == "" and err.startswith("error=Divergence")
        assert len(err.splitlines()) == 1
