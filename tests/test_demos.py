"""The scripts in demos/ run end to end and write the files README names.

Each runs in a fresh interpreter with the working directory set to a
temporary directory, since the demos write their artifacts there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapdyn

_SRC = str(Path(gapdyn.__file__).resolve().parents[1])
_DEMOS = Path(__file__).resolve().parents[1] / "demos"
_WRITES = {
    "three_regime_figure.py": ["three_regimes.svg"],
    "impulse_response.py": ["impulse_response.svg"],
    "estimate_damping.py": ["noisy_run.csv"],
    "shock_gallery.py": ["shock_gallery.svg"],
    "dsge_residuals.py": [],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in _DEMOS.glob("*.py")) == sorted(_WRITES)


@pytest.mark.parametrize("name", sorted(_WRITES))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(_DEMOS / name)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_WRITES[name])
