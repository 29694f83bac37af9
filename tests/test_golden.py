"""Byte-for-byte lock on command output: stdout, CSV and SVG of fixed scenarios.

Every scenario runs `gapdyn.cli.main` on a config at the default 201-node
grid (t_end = 20, dt = 0.1), except one long run, and compares what it
prints and writes with the files under tests/golden/.  Every case runs one
command line on fixed flags, or on CSV files (some of them golden CSVs
written by the scenarios), and compares its stdout, or its stderr line when
it fails, with the file of that name; the exit status it must return is part
of the case.  Regenerate those files only for a deliberate change of output,
and record which code they were written with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import subprocess
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
    # A long decay: most of its y values are below 1e-100 and hundreds are
    # subnormal, the tail that CSV number formatting must get right.
    out["simulate-rk4-long"] = (
        "gamma = 1.2\nalpha = 2.0\ny0 = 1.0\nydot0 = 0.5\n"
        "dt = 0.5\nt_end = 1500\nintegrator = rk4\n",
        ["simulate"],
        True,
    )
    return out


SCENARIOS = _scenarios()

# A sign-flipping series sampled at dt = 0.5: its AR(2) fit has phi2 < 0, so
# ar2 finds no real damping and the MLE ends on the edge of the admissible
# lag coefficients, where alpha lies on the aliasing curve gamma^2/4 + (pi/dt)^2.
_ALTERNATING = "t,y\n" + "".join(
    "%r,%r\n" % (0.5 * i, (-1) ** i * (1 + 0.1 * (7 * i % 5))) for i in range(40)
)

_CRITICAL = ["--gamma", "2.5", "--alpha", "1.5625"]  # gamma = 2k, alpha = k^2, k = 1.25
_POINT = "c=1.2,r=0.03,b=0.5,b_next=0.4,w=1.1,n=0.9,y=1.3,r_k=0.05"

# name -> (argv, files written into the working directory first, exit status).
# Error messages name their input file, so inputs are given by relative path.
CASES: dict[str, tuple[list[str], dict[str, str], int]] = {
    **{
        f"estimate-{method}-{source}": (
            ["estimate", "--in", str(GOLDEN / f"simulate-{source}.csv"), "--method", method], {}, 0
        )
        for method in ("ar2", "mle")
        for source in ("euler-white-noise", "rk4-white-noise", "euler-ar1", "rk4-ar1")
    },
    "classify-under": (["classify", "--gamma", "0.6", "--alpha", "2"], {}, 0),
    "classify-critical": (["classify", *_CRITICAL], {}, 0),
    "classify-over": (["classify", "--gamma", "3", "--alpha", "1"], {}, 0),
    "check-default": (["check", "--beta", "0.99", "--sigma-c", "2"], {}, 0),
    "check-point": (["check", "--beta", "0.99", "--sigma-c", "2", "--point", _POINT], {}, 0),
    "error-usage": ([], {}, 1),
    "error-data": (
        ["estimate", "--in", "ragged.csv"], {"ragged.csv": "t,y\n0.0,1.0\n0.1,0.9\n0.25,0.8\n"}, 2
    ),
    "error-numerical": (
        ["estimate", "--in", "flat.csv"], {"flat.csv": "t,y\n0,1\n1,1\n2,1\n3,1\n"}, 3
    ),
    "estimate-mle-boundary": (
        ["estimate", "--in", "alternating.csv", "--method", "mle"],
        {"alternating.csv": _ALTERNATING}, 0,
    ),
    "error-nonstationary": (
        ["estimate", "--in", "alternating.csv", "--method", "ar2"],
        {"alternating.csv": _ALTERNATING}, 3,
    ),
}


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


def _run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """stdout of a case that succeeds, or stderr of one that fails, run in workdir."""
    argv, inputs, want_code = CASES[name]
    for filename, text in inputs.items():
        (workdir / filename).write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    kept, other = (stdout, stderr) if want_code == 0 else (stderr, stdout)
    if code != want_code or other.getvalue():
        raise AssertionError(
            f"{name}: exit {code} (want {want_code}), "
            f"stdout {stdout.getvalue()!r}, stderr {stderr.getvalue()!r}"
        )
    return {"stdout" if want_code == 0 else "stderr": kept.getvalue().encode("utf-8")}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_bytes_match_golden(name, tmp_path):
    outputs = _run(name, tmp_path)
    for suffix, data in outputs.items():
        expected = (GOLDEN / f"{name}.{suffix}").read_bytes()
        assert data == expected, f"{name}.{suffix} differs from the golden file"


@pytest.mark.parametrize("name", sorted(name for name, s in SCENARIOS.items() if s[2]))
def test_output_bytes_match_golden_over_a_decoy(name, tmp_path):
    # Output files are written over the old bytes in place and then cut, so
    # a longer file already at each path must leave none of its bytes.
    for suffix in ("csv", "svg"):
        size = (GOLDEN / f"{name}.{suffix}").stat().st_size
        (tmp_path / f"{name}.{suffix}").write_bytes(b"decoy\n" * (size // 6 + 100))
    for suffix, data in _run(name, tmp_path).items():
        expected = (GOLDEN / f"{name}.{suffix}").read_bytes()
        assert data == expected, f"{name}.{suffix} over a decoy differs from the golden file"


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_output_matches_golden(name, tmp_path):
    for suffix, data in _run_case(name, tmp_path).items():
        expected = (GOLDEN / f"{name}.{suffix}").read_bytes()
        assert data == expected, f"{name}.{suffix} differs from the golden file"


# Kernel choices made at run time on x86-64: numpy's SIMD dispatch level
# (NEP 38) and the CPU type of a DYNAMIC_ARCH OpenBLAS.  Each acts only on
# the process it is set in.
_KERNELS = [
    {"NPY_ENABLE_CPU_FEATURES": "X86_V2"},
    {"NPY_ENABLE_CPU_FEATURES": "X86_V3"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"OPENBLAS_CORETYPE": "Nehalem"},
]

_CHILD = """
import sys
from pathlib import Path
from test_golden import GOLDEN, SCENARIOS, _run, _run_case
for name in sys.argv[2:]:
    run = _run if name in SCENARIOS else _run_case
    for suffix, data in run(name, Path(sys.argv[1])).items():
        if data != (GOLDEN / f"{name}.{suffix}").read_bytes():
            print(f"{name}.{suffix}")
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernel names"
)
@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda env: "=".join(*env.items()))
def test_rk4_bytes_do_not_depend_on_kernels(kernel, tmp_path):
    # RK4's step map is built from scalar products and sums, never `@`, so a
    # BLAS or SIMD kernel that fuses multiply-adds cannot move its bits.
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), str(GOLDEN.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), **kernel)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path), "sweep-rk4-ar1", "simulate-rk4-white-noise"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "")


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernel names"
)
@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda env: "=".join(*env.items()))
def test_estimate_bytes_do_not_depend_on_kernels(kernel, tmp_path):
    # The lag fit and every SSR sum elementwise products with np.sum, never
    # `@` or np.linalg, so no BLAS kernel choice can move an estimate's digits.
    # The child first writes (and checks) the scenario CSVs the cases read;
    # the boundary case reads its own inline file.
    estimates = sorted(name for name in CASES if name.startswith("estimate-"))
    sources = sorted({f"simulate-{name.split('-', 2)[2]}" for name in estimates} & set(SCENARIOS))
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), str(GOLDEN.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), **kernel)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path), *sources, *estimates],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "")


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SCENARIOS):
            for suffix, data in _run(name, Path(tmp)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)
        # After the scenarios: the estimate cases read the CSVs they wrote.
        for name in sorted(CASES):
            for suffix, data in _run_case(name, Path(tmp)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
