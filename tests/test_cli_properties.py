"""Error-protocol properties: parse_config raises only gapdyn errors, and
cli.main on any argument list exits 0-3 with at most one `error=` line.

Property tests use hypothesis (MacIver et al., "Hypothesis: A new approach
to property-based testing", JOSS 4(43), 2019).  Every strategy keeps runs
small: no grid above 2001 nodes and no sweep above 50 gammas.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdyn import GapdynError, OscillatorParams, OscState, TimeGrid, parse_config
from gapdyn import integrate_euler, write_trajectory_csv
from gapdyn.cli import main

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_ENUM_VALUES = {
    "integrator": ["euler", "rk4"],
    "shock": ["none", "impulse", "white-noise", "ar1"],
}
_NUMBER_KEYS = [
    "gamma", "alpha", "y0", "ydot0", "shock_at", "shock_magnitude", "shock_sigma", "shock_rho",
    "shock_seed",
]
_NUMBERS = ["nan", "inf", "-inf", "1e308", "-0", "0.5", "2", "18446744073709551616", "1_0"]


def _config_lines():
    """Documents of known keys with values of their kind, a t_end and dt
    pair of extreme sizes, and arbitrary lines."""
    number = st.floats().map(repr) | st.integers().map(str) | st.sampled_from(_NUMBERS)
    known = st.builds("{} = {}".format, st.sampled_from(_NUMBER_KEYS), number) | st.sampled_from(
        [f"{key} = {value}" for key, values in _ENUM_VALUES.items() for value in values])
    junk = st.builds("{} = {}".format, st.text(), st.text()) | st.text()
    sizes = st.floats(min_value=0.0).map(repr) | st.sampled_from(["1e308", "1e-300", "0", "-1"])
    grid = st.builds("t_end = {}\ndt = {}".format, sizes, sizes)
    return st.builds(
        lambda *parts: "\n".join(sum(parts, [])),
        st.lists(grid, max_size=1), st.lists(known, max_size=6), st.lists(junk, max_size=1),
    )


@_SETTINGS
@given(_config_lines())
def test_parse_config_raises_only_gapdyn_errors(text):
    try:
        cfg = parse_config(text)
    except GapdynError:
        return
    assert cfg.n_steps >= 2


# Config lines that keep the grid at or below 2001 nodes: t_end <= 200
# with dt >= 0.1, the default.  One config in five also gets a bad line.
_GOOD_LINES = [
    "integrator = rk4", "integrator = euler", "shock = impulse", "shock = white-noise",
    "shock = ar1", "shock = none", "shock_at = 5", "shock_at = 500", "shock_magnitude = 1e308",
    "shock_sigma = 2", "shock_rho = 0.99", "shock_seed = 7",
    "gamma = 0", "gamma = 1e200", "alpha = 1e300", "y0 = 1e308", "ydot0 = -3", "t_end = 200",
    "t_end = 0.1", "dt = 1", "dt = 2", "# comment", "",
]
_BAD_LINES = [
    "integrator = leapfrog", "shock_at = -1", "shock_sigma = -1", "shock_rho = 1",
    "shock_seed = -1", "gamma = -1", "alpha = 0", "t_end = 0.05", "t_end = 1e300",
    "dt = 1e-300", "dt = 0", "t_end = nan", "colour = blue", "gamma = fast", "no equals sign",
]
_SMALL_CONFIG = st.builds(
    lambda good, bad: "\n".join(good + bad) + "\n",
    st.lists(st.sampled_from(_GOOD_LINES), max_size=6),
    st.integers(0, 4).flatmap(
        lambda k: st.lists(st.sampled_from(_BAD_LINES), min_size=1, max_size=1) if k == 4
        else st.just([])
    ),
)


def _is_help(token):
    return token.startswith("-h") or token.startswith("--h")


# Flags per command: (flag, kind of value, required).
_COMMANDS = {
    "simulate": [("--config", "config", True), ("--out", "out", False),
                 ("--svg", "out", False), ("--seed", "int", False)],
    "classify": [("--gamma", "num", True), ("--alpha", "num", True)],
    "estimate": [("--in", "series", True), ("--method", "method", False)],
    "impulse": [("--config", "config", True), ("--magnitude", "num", True),
                ("--at", "num", True), ("--out", "out", False), ("--svg", "out", False)],
    "sweep": [("--config", "config", True), ("--gamma-from", "num", True),
              ("--gamma-to", "num", True), ("--gamma-steps", "steps", True),
              ("--seed", "int", False)],
    "check": [("--beta", "num", True), ("--sigma-c", "num", True), ("--point", "point", False)],
}


@st.composite
def argvs(draw, tmp_dir):
    """An argument list for one of gapdyn's commands.  Flags are mostly the
    command's own, with values of the expected kind; some are dropped, and
    some lists get stray tokens or an unknown command."""
    config = tmp_dir / "scenario.cfg"
    config.write_text(draw(_SMALL_CONFIG))
    values = {
        "config": st.sampled_from([str(config), str(tmp_dir / "missing.cfg"), str(tmp_dir),
                                   str(tmp_dir / "series.csv")]),
        "series": st.sampled_from([str(tmp_dir / "series.csv"), str(tmp_dir / "bad.csv"),
                                   str(tmp_dir / "binary.csv"), str(tmp_dir / "missing.csv"),
                                   str(config)]),
        "out": st.sampled_from([str(tmp_dir / "out.csv"), str(tmp_dir / "out.svg"),
                                str(tmp_dir), str(tmp_dir / "nodir" / "out.csv")]),
        "int": st.integers(-5, 50).map(str) | st.sampled_from(["18446744073709551616", "x"]),
        "steps": st.integers(-1, 50).map(str) | st.just("x"),
        "num": st.floats().map(repr) | st.sampled_from(["1e308", "-0.0", "0.5", "2", "7", "x"]),
        "method": st.sampled_from(["ar2", "mle", "ols"]),
        "point": st.sampled_from(["c=2,r=0.01", "c=x", "q=1", "c", "", "w=nan,y=1e308",
                                  "c=1e-200"]),
    }
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag, kind, required in _COMMANDS[command]:
        if draw(st.integers(0, 9)) < (9 if required else 5):  # 0 is drawn most
            argv.append(f"{flag}={draw(values[kind])}")
    if draw(st.integers(0, 4)) == 4:
        words = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=10)
        strays = st.sampled_from(["--bogus", "-x", "-", "--", "plot", "--config"]) | words
        argv += draw(st.lists(strays.filter(lambda w: not _is_help(w)), min_size=1, max_size=3))
    if draw(st.integers(0, 9)) == 9:
        argv[0] = draw(st.sampled_from(["plot", "", "Simulate"]))
    return argv


def _write_inputs(tmp_dir):
    grid = TimeGrid(0.1, 201)
    traj = integrate_euler(OscillatorParams(0.5, 2.0), OscState(1.0, 0.0), np.zeros(201), grid)
    write_trajectory_csv(tmp_dir / "series.csv", traj)
    (tmp_dir / "bad.csv").write_text('t,y,note\n0,1,"' + "x" * 200_000 + '"\n1,2,\n')
    (tmp_dir / "binary.csv").write_bytes(b"t,y\n0,\xff\n")


@_SETTINGS
@given(data=st.data())
def test_main_follows_the_error_protocol(tmp_path_factory, data):
    tmp_dir = tmp_path_factory.mktemp("argv")
    _write_inputs(tmp_dir)
    argv = data.draw(argvs(tmp_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error="), lines
        assert out.getvalue() == ""
