"""Byte-for-byte lock on command output: stdout, CSV and SVG of fixed scenarios.

Every scenario runs `gapdyn.cli.main` on a config at the default 201-node
grid (t_end = 20, dt = 0.1) and compares what it prints and writes with the
files under tests/golden/.  Regenerate those files only for a deliberate
change of output, and record which code they were written with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gapdyn.cli import main

GOLDEN = Path(__file__).with_name("golden")

# Under-damped, so forced and free paths both cross zero a few times.
_BASE = "gamma = 0.6\nalpha = 2.0\ny0 = 1.0\nydot0 = 0.5\n"

_SHOCKS = {
    "none": "shock = none\n",
    "impulse": "shock = impulse\nshock_at = 3.05\nshock_magnitude = -2.5\n",
    "white-noise": "shock = white-noise\nshock_sigma = 0.3\nshock_seed = 11\n",
    "ar1": "shock = ar1\nshock_rho = 0.8\nshock_sigma = 0.2\nshock_seed = 7\n",
}


def _scenarios() -> dict[str, tuple[str, list[str], bool]]:
    """name -> (config text, argv after --config FILE, writes CSV and SVG)."""
    out: dict[str, tuple[str, list[str], bool]] = {}
    for integrator in ("euler", "rk4"):
        head = _BASE + f"integrator = {integrator}\n"
        for kind, shock in _SHOCKS.items():
            out[f"simulate-{integrator}-{kind}"] = (head + shock, ["simulate"], True)
        out[f"impulse-{integrator}"] = (
            head, ["impulse", "--magnitude", "4", "--at", "2.5"], True
        )
        out[f"sweep-{integrator}-ar1"] = (
            head + _SHOCKS["ar1"],
            ["sweep", "--gamma-from", "0.2", "--gamma-to", "3", "--gamma-steps", "8"],
            False,
        )
    return out


SCENARIOS = _scenarios()


def _run(name: str, workdir: Path) -> dict[str, bytes]:
    """Outputs of one scenario, keyed by golden file suffix."""
    config_text, argv, writes_files = SCENARIOS[name]
    config = workdir / f"{name}.cfg"
    config.write_text(config_text)
    command, *rest = argv
    full = [command, "--config", str(config), *rest]
    if writes_files:
        full += ["--out", str(workdir / f"{name}.csv"), "--svg", str(workdir / f"{name}.svg")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(full)
    if code != 0 or stderr.getvalue():
        raise AssertionError(f"{name}: exit {code}, stderr {stderr.getvalue()!r}")
    outputs = {"stdout": stdout.getvalue().encode("utf-8")}
    if writes_files:
        outputs["csv"] = (workdir / f"{name}.csv").read_bytes()
        outputs["svg"] = (workdir / f"{name}.svg").read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_bytes_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("GAPDYN_SEED", raising=False)
    outputs = _run(name, tmp_path)
    for suffix, data in outputs.items():
        expected = (GOLDEN / f"{name}.{suffix}").read_bytes()
        assert data == expected, f"{name}.{suffix} differs from the golden file"


def _regenerate() -> None:
    os.environ.pop("GAPDYN_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SCENARIOS):
            for suffix, data in _run(name, Path(tmp)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
