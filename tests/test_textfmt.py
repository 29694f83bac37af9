"""The numpy formatters print exactly what `%` prints.

g17_rows must give the bytes of "%.17g" and f2_pairs those of "%.2f" for
every input: random bit patterns, the values next to powers of ten where
log10 can put the exponent one off, exact ties at the 18th digit, and every
two-decimal tie below 1000.  Property tests use hypothesis (MacIver et al.,
"Hypothesis: A new approach to property-based testing", JOSS 4(43), 2019).
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdyn import OscillatorParams, OscState, TimeGrid, Trajectory, _textfmt, integrate_rk4
from gapdyn import write_trajectory_csv
from gapdyn._textfmt import _ZERO, _digits17, f2_pairs, g17_rows
from test_golden import _KERNELS

_SETTINGS = settings(max_examples=1000, deadline=None, derandomize=True, database=None)


def _g17_reference(block: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode()


def _f2_reference(xs: np.ndarray, ys: np.ndarray) -> bytes:
    return " ".join("%.2f,%.2f" % pair for pair in zip(xs.tolist(), ys.tolist())).encode()


def _assert_g17(values: np.ndarray, columns: int = 4) -> None:
    """Every value, in blocks of 1024 rows as the CSV writer uses them."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-values.size % columns)])
    rows = values.reshape(-1, columns)
    for i in range(0, len(rows), 1024):
        block = np.ascontiguousarray(rows[i : i + 1024])
        got, want = g17_rows(block), _g17_reference(block)
        if got != want:
            bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
            raise AssertionError(f"{len(bad)} rows differ, first {bad[0]}")


def _with_neighbours(values: np.ndarray, ulps: int) -> np.ndarray:
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _exact_ties() -> np.ndarray:
    """Dyadic values K / 2**s whose exact decimal expansion has 18
    significant digits ending in 5, so %.17g rounds a tie: with K odd,
    K / 2**s = 5**s * K / 10**s, and 5**s * K ends in 5."""
    rng = np.random.default_rng(5)
    ties = []
    for s in range(3, 26):
        lo, hi = -(-10**17 // 5**s), 10**18 // 5**s
        for k in set(rng.integers(lo, hi, size=40).tolist()) | {lo, hi - 1}:
            k |= 1
            if 10**17 <= 5**s * k < 10**18:
                ties.append(k / 2**s)
    ties = np.array(ties)
    return np.concatenate([ties, -ties])


@_SETTINGS
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_g17_matches_percent_on_any_float(v):
    assert g17_rows(np.array([[v]])) == b"%.17g\n" % v


@settings(_SETTINGS, max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=24), st.integers(1, 4))
def test_g17_rows_match_percent(values, columns):
    values = values[: len(values) // columns * columns] or values[:1] * columns
    block = np.array(values).reshape(-1, columns)
    assert g17_rows(block) == _g17_reference(block)


@_SETTINGS
@given(st.floats(-10.0, 1100.0), st.floats(-10.0, 1100.0))
def test_f2_matches_percent(x, y):
    assert f2_pairs(np.array([x]), np.array([y])) == ("%.2f,%.2f" % (x, y)).encode()


def _random_bits(size: int = 1_000_000) -> np.ndarray:
    return np.random.default_rng(1).integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)


def _powers_of_ten() -> np.ndarray:
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    return _with_neighbours(np.concatenate([powers, -powers]), 2)


def test_g17_random_bit_patterns():
    _assert_g17(_random_bits())


def _significant_digits(text: bytes) -> bytes:
    """The digits of a %g field without its sign, ".", leading or trailing
    zeros and exponent."""
    return text.partition(b"e")[0].lstrip(b"-").replace(b".", b"").strip(b"0")


@pytest.mark.parametrize("inputs", [
    lambda: np.concatenate([_random_bits(), [0.0, -0.0, np.inf, -np.inf, np.nan]]),
    _powers_of_ten,
    lambda: _with_neighbours(_exact_ties(), 1),
], ids=["random-bits", "powers-of-ten", "ties"])
def test_digits17_are_one_int64_of_17_digits(inputs):
    values = inputs()
    digits, row, left = _digits17(values)
    assert digits.dtype == np.int64
    shown = ~left
    assert np.all((digits[shown] >= 10**16) & (digits[shown] < 10**17))
    assert np.all(digits[row == _ZERO] == 10**16)  # the digits of 1.0
    printed = shown & (row != _ZERO)
    got = [str(d).rstrip("0").encode() for d in digits[printed].tolist()]
    want = [_significant_digits(b"%.17g" % v) for v in values[printed].tolist()]
    assert got == want


_KERNEL_CHILD = """
from test_textfmt import _assert_g17, _exact_ties, _powers_of_ten, _random_bits, _with_neighbours
_assert_g17(_powers_of_ten())
_assert_g17(_with_neighbours(_exact_ties(), 1))
_assert_g17(_random_bits(200_000))
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernel names"
)
@pytest.mark.parametrize(
    "kernel", [env for env in _KERNELS if "NPY_ENABLE_CPU_FEATURES" in env],
    ids=lambda env: "=".join(*env.items()),
)
def test_g17_bytes_do_not_depend_on_kernels(kernel):
    # The exponent comes from np.log10, whose kernel numpy picks per CPU; it
    # may be one off next to a power of ten under any of them.
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), **kernel)
    proc = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "")


def test_g17_signed_zero_subnormals_and_non_finite():
    _assert_g17([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                 np.inf, -np.inf, np.nan, 1.7976931348623157e308, -1.7976931348623157e308])


def test_g17_next_to_powers_of_ten():
    _assert_g17(_powers_of_ten())


def test_g17_integers_near_1e16_and_1e17():
    near = [float(10**16 + d) for d in range(-300, 301)] + [float(10**17 + d) for d in range(-3000, 3001)]
    _assert_g17(_with_neighbours(np.array(near), 1))


def test_g17_exact_ties_at_the_18th_digit():
    ties = _exact_ties()
    assert len(ties) > 1000
    _assert_g17(_with_neighbours(ties, 1))


def test_g17_fixed_and_exponent_forms():
    # %g switches form at exponents -5/-4 and 16/17, and to three exponent
    # digits at 100.
    mantissas = np.random.default_rng(2).uniform(1.0, 10.0, size=50)
    exponents = np.array([-101, -100, -99, -6, -5, -4, -3, -1, 0, 1, 15, 16, 17, 18, 99, 100])
    values = (mantissas[:, None] * 10.0 ** exponents).ravel()
    _assert_g17(np.concatenate([values, -values, np.round(values, 3)]))


def test_f2_every_tie_below_1000():
    k = np.arange(200_000)
    values = np.concatenate([k / 200.0, k * 0.005])
    values = _with_neighbours(values, 1)
    values = values[(values >= 0.0) & (values < 1000.0)]
    for i in range(0, values.size, 4096):
        xs = values[i : i + 4096]
        ys = xs[::-1].copy()
        assert f2_pairs(xs, ys) == _f2_reference(xs, ys)


@pytest.mark.parametrize("values", [
    [-0.0, 1.0], [-0.004, 3.0], [999.994, 999.995], [1000.0, 1.0], [np.nan, 1.0], [np.inf, 2.0],
])
def test_f2_blocks_left_to_percent(values):
    xs = np.array(values)
    assert f2_pairs(xs, xs[::-1].copy()) == _f2_reference(xs, xs[::-1])


def test_f2_empty():
    assert f2_pairs(np.array([]), np.array([])) == b""


def _count_fallback(monkeypatch) -> list[np.ndarray]:
    """The blocks g17_rows leaves to `%`, as they are formatted."""
    seen: list[np.ndarray] = []
    slow = _textfmt._g17_slow

    def counted(block: np.ndarray) -> bytes:
        seen.append(block.copy())
        return slow(block)

    monkeypatch.setattr(_textfmt, "_g17_slow", counted)
    return seen


def test_fallback_is_rare_on_normals(monkeypatch):
    # 25 blocks, none of which holds a value the digits cannot decide.
    seen = _count_fallback(monkeypatch)
    normals = np.random.default_rng(3).standard_normal(100_000)
    _assert_g17(normals)
    assert len(seen) == 0


def test_fallback_takes_every_exact_tie(monkeypatch):
    seen = _count_fallback(monkeypatch)
    ties = _exact_ties()
    _assert_g17(ties)
    assert seen and set(ties.tolist()) <= {v for block in seen for v in block.ravel().tolist()}


def test_fallback_is_per_block_in_the_csv_writer(tmp_path, monkeypatch):
    # One exact tie in rows 1024-2047 of a 3000-row trajectory: only the
    # second of its three blocks goes to `%`.
    n = 3000
    y, ydot, eps = np.random.default_rng(6).standard_normal((3, n))
    y[1500] = _exact_ties()[0]
    traj = Trajectory(TimeGrid(dt=0.1, n_steps=n), y, ydot, eps)
    seen = _count_fallback(monkeypatch)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    assert len(seen) == 1 and np.array_equal(seen[0][:, 1], y[1024:2048])
    block = np.column_stack([traj.grid.times(), y, ydot, eps])
    assert path.read_bytes() == b"t,y,ydot,eps\n" + _g17_reference(block)


@pytest.mark.parametrize("path", ["exp-decay", "rk4"])
def test_g17_long_decay_trajectory_blocks(path):
    # Trajectory CSV rows: t, y, ydot and an unforced eps column of zeros.
    # A decaying exponential passes through subnormal values to exact zeros;
    # the RK4 path of an over-damped oscillator stalls at subnormal values.
    grid = TimeGrid(dt=0.1, n_steps=20_001)
    t = grid.times()
    if path == "rk4":
        traj = integrate_rk4(OscillatorParams(gamma=3.0, alpha=1.0), OscState(1.0, 0.5),
                             np.zeros(grid.n_steps), grid)
        y, ydot = traj.y, traj.ydot
    else:
        y = np.exp(-0.5 * t) * np.cos(2.0 * t)
        ydot = -0.5 * y - 2.0 * np.exp(-0.5 * t) * np.sin(2.0 * t)
        assert np.all(y[-1000:] == 0.0) and np.all(ydot[-1000:] == 0.0)
    assert np.count_nonzero((y != 0.0) & (np.abs(y) < 2.2250738585072014e-308)) > 100
    _assert_g17(np.column_stack([t, y, ydot, np.zeros_like(t)]).ravel())


def test_g17_tables_cold_then_warm_then_extreme_powers():
    for fn in vars(_textfmt).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    normals = np.random.default_rng(4).standard_normal(4096)
    _assert_g17(normals)
    _assert_g17(normals * 1e-3)
    # One block whose lowest exponent is known and whose highest are new.
    _assert_g17(np.concatenate([normals[:2048], normals[2048:] * 1e5]))
    with np.errstate(over="ignore"):  # the largest float's neighbours above are inf
        extremes = _with_neighbours(np.array([1e-323, 1.7976931348623157e308]), 2)
    _assert_g17(np.concatenate([extremes, -extremes]))
    _assert_g17(normals[::-1])


def _shown_digits(text: bytes) -> int:
    """Significant digits of a %g field up to its last nonzero one."""
    mantissa = text.partition(b"e")[0]
    return len(mantissa.lstrip(b"-").replace(b".", b"").strip(b"0"))


def test_g17_every_significant_digit_count():
    # 17 - z digits for z trailing zeros in the 17-digit rounding, z = 0 to
    # 16, from exactly representable values: 1 + 2**-j has j decimals;
    # d * 10**(18 - s) with s digits in d, s <= 11, is an exact integer of
    # at least 1e17; 2**-j below 1e-4 has the digits of 5**j.
    fixed = [1.0 + 2.0**-j for j in range(17)]
    large = [float(int("1234567891"[: s - 1] + "7") * 10 ** (18 - s)) for s in range(1, 12)]
    small = [2.0**-j for j in range(14, 25)]
    values = np.array(fixed + large + small)
    values = np.concatenate([values, -values])
    shown = {(_shown_digits(b"%.17g" % v), b"e" in b"%.17g" % v, v < 0) for v in values.tolist()}
    assert shown == {(s, e, neg) for s in range(1, 18) for e in (False, True) for neg in (False, True)}
    _assert_g17(values, columns=1)
    _assert_g17(values, columns=4)
