"""Every input a run reads changes what it prints or writes.

An option, config key or point key that no run can tell apart from its
default is an input that does nothing, so it should be a constant.  The
table below pairs a base run with the same run with one input changed; the
two must differ in stdout or in the files written.  The coverage test
checks that the table names exactly the inputs the program reads: every
option of every subcommand, every config key and every `DsgePoint` field,
each of which `check` accepts as a `--point` key.
"""

import argparse
import contextlib
import io
import math

import pytest

from gapdyn import DsgePoint
from gapdyn.cli import _build_parser, main
from gapdyn.config import _DEFAULTS, _ENUM_KEYS


def _series(gamma):
    """A damped cosine with damping gamma, 201 rows at spacing 0.1."""
    rows = [f"{i * 0.1!r},{math.exp(-0.5 * gamma * i * 0.1) * math.cos(1.3 * i * 0.1)!r}\n"
            for i in range(201)]
    return "t,y\n" + "".join(rows)


# The files every run starts with; a side of a row may add to them.
_INPUTS = {"scenario.cfg": "", "a.csv": _series(0.5), "b.csv": _series(0.9)}

_SIM = ["simulate", "--config", "scenario.cfg"]
_IMP = ["impulse", "--config", "scenario.cfg", "--magnitude", "2", "--at", "3"]
_SWP = ["sweep", "--config", "scenario.cfg", "--gamma-from", "0.5", "--gamma-to", "3",
        "--gamma-steps", "4"]
_CHK = ["check", "--beta", "0.99", "--sigma-c", "2"]
_NOISE = {"scenario.cfg": "shock = white-noise\n"}

# (input, base files, base argv, changed files, changed argv).  Files are
# written over _INPUTS before the run.
_OPTIONS = [
    (("simulate", "--config"), {}, _SIM, {"other.cfg": "gamma = 0.5\n"},
     ["simulate", "--config", "other.cfg"]),
    (("simulate", "--out"), {}, _SIM, {}, _SIM + ["--out", "run.csv"]),
    (("simulate", "--svg"), {}, _SIM, {}, _SIM + ["--svg", "run.svg"]),
    (("simulate", "--seed"), _NOISE, _SIM, _NOISE, _SIM + ["--seed", "3"]),
    (("classify", "--gamma"), {}, ["classify", "--gamma", "2", "--alpha", "1"],
     {}, ["classify", "--gamma", "3", "--alpha", "1"]),
    (("classify", "--alpha"), {}, ["classify", "--gamma", "2", "--alpha", "1"],
     {}, ["classify", "--gamma", "2", "--alpha", "2"]),
    (("estimate", "--in"), {}, ["estimate", "--in", "a.csv"], {}, ["estimate", "--in", "b.csv"]),
    (("estimate", "--method"), {}, ["estimate", "--in", "a.csv"],
     {}, ["estimate", "--in", "a.csv", "--method", "mle"]),
    (("impulse", "--config"), {}, _IMP, {"other.cfg": "gamma = 0.5\n"},
     ["impulse", "--config", "other.cfg"] + _IMP[3:]),
    (("impulse", "--magnitude"), {}, _IMP, {}, _IMP[:4] + ["5"] + _IMP[5:]),
    (("impulse", "--at"), {}, _IMP, {}, _IMP[:6] + ["1"]),
    (("impulse", "--out"), {}, _IMP, {}, _IMP + ["--out", "run.csv"]),
    (("impulse", "--svg"), {}, _IMP, {}, _IMP + ["--svg", "run.svg"]),
    (("sweep", "--config"), {}, _SWP, {"other.cfg": "alpha = 4\n"},
     ["sweep", "--config", "other.cfg"] + _SWP[3:]),
    (("sweep", "--gamma-from"), {}, _SWP, {}, _SWP[:4] + ["1"] + _SWP[5:]),
    (("sweep", "--gamma-to"), {}, _SWP, {}, _SWP[:6] + ["4"] + _SWP[7:]),
    (("sweep", "--gamma-steps"), {}, _SWP, {}, _SWP[:8] + ["5"]),
    (("sweep", "--seed"), _NOISE, _SWP, _NOISE, _SWP + ["--seed", "3"]),
    (("check", "--beta"), {}, _CHK, {}, ["check", "--beta", "0.9", "--sigma-c", "2"]),
    (("check", "--sigma-c"), {}, _CHK + ["--point", "c=2,r=0.05"],
     {}, ["check", "--beta", "0.99", "--sigma-c", "3", "--point", "c=2,r=0.05"]),
    (("check", "--point"), {}, _CHK, {}, _CHK + ["--point", "r=0.05"]),
]

# Config key: (base document, document with the key changed).  Each runs
# as `simulate --out`, so a change anywhere in the path shows.
_CONFIG_KEYS = {
    "gamma": ("", "gamma = 0.5"),
    "alpha": ("", "alpha = 2"),
    "y0": ("", "y0 = 2"),
    "ydot0": ("", "ydot0 = 1"),
    "t_end": ("", "t_end = 10"),
    "dt": ("", "dt = 0.05"),
    "integrator": ("", "integrator = rk4"),
    "shock": ("", "shock = impulse"),
    "shock_at": ("shock = impulse", "shock = impulse\nshock_at = 3"),
    "shock_magnitude": ("shock = impulse", "shock = impulse\nshock_magnitude = 2"),
    "shock_sigma": ("shock = white-noise", "shock = white-noise\nshock_sigma = 0.3"),
    "shock_seed": ("shock = white-noise", "shock = white-noise\nshock_seed = 3"),
    "shock_rho": ("shock = ar1", "shock = ar1\nshock_rho = 0.5"),
}

# Point key: (base --point, --point with the key changed).  k is priced
# only through r_k, which is 0 by default.
_POINT_KEYS = {
    "c": ("", "c=2"),
    "b": ("", "b=1"),
    "b_next": ("", "b_next=1"),
    "r": ("", "r=0.05"),
    "w": ("", "w=2"),
    "n": ("", "n=2"),
    "k": ("r_k=0.1", "r_k=0.1,k=2"),
    "y": ("", "y=2"),
    "p": ("", "p=2"),
    "r_k": ("", "r_k=0.1"),
}

_SIM_OUT = _SIM + ["--out", "run.csv"]
_ROWS = (
    [(f"{command} {flag}", *sides) for (command, flag), *sides in _OPTIONS]
    + [(f"config {key}", {"scenario.cfg": base}, _SIM_OUT, {"scenario.cfg": changed}, _SIM_OUT)
       for key, (base, changed) in _CONFIG_KEYS.items()]
    + [(f"point {key}", {}, _CHK + ["--point", base], {}, _CHK + ["--point", changed])
       for key, (base, changed) in _POINT_KEYS.items()]
)


def _run(directory, files, argv, monkeypatch):
    """Exit code, stderr, stdout and the bytes of each file written by argv,
    run in `directory` holding _INPUTS updated with `files`."""
    directory.mkdir()
    inputs = {**_INPUTS, **files}
    for name, text in inputs.items():
        (directory / name).write_text(text)
    monkeypatch.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = {p.name: p.read_bytes() for p in directory.iterdir() if p.name not in inputs}
    return code, err.getvalue(), out.getvalue(), written


@pytest.mark.parametrize("base_files, base_argv, changed_files, changed_argv",
                         [row[1:] for row in _ROWS], ids=[row[0] for row in _ROWS])
def test_changing_one_input_changes_the_output(tmp_path, monkeypatch, base_files, base_argv,
                                               changed_files, changed_argv):
    base = _run(tmp_path / "base", base_files, base_argv, monkeypatch)
    changed = _run(tmp_path / "changed", changed_files, changed_argv, monkeypatch)
    assert base[:2] == (0, "") and changed[:2] == (0, ""), (base[:2], changed[:2])
    assert base[2:] != changed[2:]


def test_table_covers_every_input():
    subparsers = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        f"{command} {action.option_strings[0]}"
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }
    config_keys = {f"config {key}" for key in {*_DEFAULTS, *_ENUM_KEYS}}
    point_keys = {f"point {name}" for name in DsgePoint._fields}
    inputs, table = options | config_keys | point_keys, {row[0] for row in _ROWS}
    # (inputs without a row, rows naming no input)
    assert (sorted(inputs - table), sorted(table - inputs)) == ([], [])
