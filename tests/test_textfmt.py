"""The numpy formatters print exactly what `%` prints.

g17_rows must give the bytes of "%.17g" and f2_pairs the text of "%.2f" for
every input: random bit patterns, the values next to powers of ten where
log10 can put the exponent one off, exact ties at the 18th digit, and every
two-decimal tie below 1000.  Property tests use hypothesis (MacIver et al.,
"Hypothesis: A new approach to property-based testing", JOSS 4(43), 2019).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapdyn import OscillatorParams, OscState, TimeGrid, _textfmt, integrate_rk4
from gapdyn._textfmt import f2_pairs, g17_rows

_SETTINGS = settings(max_examples=1000, deadline=None, derandomize=True, database=None)


def _g17_reference(block: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode()


def _f2_reference(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join("%.2f,%.2f" % pair for pair in zip(xs.tolist(), ys.tolist()))


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
    assert f2_pairs(np.array([x]), np.array([y])) == "%.2f,%.2f" % (x, y)


def test_g17_random_bit_patterns():
    bits = np.random.default_rng(1).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    _assert_g17(bits.view(np.float64))


def test_g17_signed_zero_subnormals_and_non_finite():
    _assert_g17([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                 np.inf, -np.inf, np.nan, 1.7976931348623157e308, -1.7976931348623157e308])


def test_g17_next_to_powers_of_ten():
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    _assert_g17(_with_neighbours(np.concatenate([powers, -powers]), 2))


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
    assert f2_pairs(np.array([]), np.array([])) == ""


def _count_fallback(monkeypatch) -> list[float]:
    seen: list[float] = []

    def counted(v: float) -> bytes:
        seen.append(v)
        return b"%.17g" % v

    monkeypatch.setattr(_textfmt, "_g17", counted)
    return seen


def test_fallback_is_rare_on_normals(monkeypatch):
    seen = _count_fallback(monkeypatch)
    normals = np.random.default_rng(3).standard_normal(100_000)
    _assert_g17(normals)
    assert len(seen) < 1000


def test_fallback_takes_every_exact_tie(monkeypatch):
    seen = _count_fallback(monkeypatch)
    ties = _exact_ties()
    _assert_g17(ties)
    assert sorted(seen) == sorted(ties.tolist())


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
