"""Block-wise CSV and SVG formatting against per-element reference loops.

write_trajectory_csv and write_svg format their rows and points in blocks;
these tests pin the bytes to a row-by-row rendering at sizes on both sides of
the block boundaries, with values whose formatting is easy to get wrong:
signed zeros, subnormals and magnitudes near 1e300.  The CSV writer formats
a settled tail (rows whose y, ydot and eps never change again) from one
formatted row, so settled trajectories with tails starting on both sides of
those boundaries are pinned too.
"""

import re

import numpy as np
import pytest

from gapdyn import OscState, TimeGrid, Trajectory, _textfmt, write_trajectory_csv
from gapdyn._textfmt import _digits17
from gapdyn.svgplot import _axis, write_svg

SIZES = [2, 1023, 1024, 1025, 2049, 4097]
SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
            1e300, -1e300, 0.1, -2.5]


def _values(n: int, seed: int, specials: bool) -> np.ndarray:
    v = np.random.default_rng(seed).normal(size=n)
    if specials:
        # fill both ends and both sides of every 1024-multiple with specials
        spots = sorted({j for k in range(0, n + 1024, 1024) for j in range(k - 3, k + 3)
                        if 0 <= j < n})
        v[spots] = np.resize(SPECIALS, len(spots))
    return v


def _csv_reference(traj: Trajectory) -> bytes:
    times = traj.grid.times()
    rows = ["t,y,ydot,eps\n"]
    for i in range(traj.grid.n_steps):
        rows.append("%.17g,%.17g,%.17g,%.17g\n"
                    % (times[i], traj.y[i], traj.ydot[i], traj.forcing[i]))
    return "".join(rows).encode()


def _polyline_reference(t: np.ndarray, curves: list[np.ndarray]) -> list[str]:
    x_min, x_max = _axis(float(t.min()), float(t.max()), pad=0.0)[1:]
    lo = min(float(v.min()) for v in curves)
    hi = max(float(v.max()) for v in curves)
    y_min, y_max = _axis(lo, hi, pad=0.05)[1:]

    def px(x):
        return 60 + (x - x_min) / (x_max - x_min) * (780 - 60)

    def py(y):
        return 455 - (y - y_min) / (y_max - y_min) * (455 - 20)

    return [" ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(t, v)) for v in curves]


def _random_trajectory(n: int) -> Trajectory:
    return Trajectory(TimeGrid(dt=1e-3, n_steps=n),
                      _values(n, 1, True), _values(n, 2, True), _values(n, 3, True))


def _settled(n: int, start: int, tail=(2e-323, -0.0, 0.25), before=None,
             moving=None) -> Trajectory:
    """A random trajectory whose (y, ydot, eps) are `tail` from row `start`
    on; rows before it are random, or `before` bit for bit if given.  The
    column numbered `moving` stays random throughout."""
    columns = [_values(n, seed, True) for seed in (1, 2, 3)]
    for k, (col, value, prior) in enumerate(zip(columns, tail, before or (None,) * 3)):
        if k == moving:
            continue
        if prior is not None:
            col[:start] = prior
        col[start:] = value
    return Trajectory(TimeGrid(dt=1e-3, n_steps=n), *columns)


def _tail_left_to_percent() -> Trajectory:
    # _textfmt leaves 1e23 to `%` (log10 puts it one power of ten off), so
    # the settled row takes that path
    assert _digits17(np.array([1e23]))[2][0]
    return _settled(1500, 700, (1e23, -1e23, 1e23))


CSV_CASES = {str(n): lambda n=n: _random_trajectory(n) for n in SIZES}
# Whole rows end at row `start`, on both sides of 1024; the tail is
# formatted 4096 rows at a time and has 4097 and 4096 rows from 1102 and 1103.
CSV_CASES.update({f"tail-from-{start}": lambda start=start: _settled(5200, start)
                  for start in (0, 1, 1022, 1023, 1024, 1025, 1102, 1103, 5198)})
CSV_CASES.update({
    "negative-zero-tail": lambda: _settled(2100, 1500, (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0)),
    "tail-left-to-percent": _tail_left_to_percent,
    "eps-moves-under-a-settled-state": lambda: _settled(2100, 500, moving=2),
    "one-row": lambda: _settled(1, 0),
})


@pytest.mark.parametrize("case", CSV_CASES)
def test_csv_matches_row_by_row(tmp_path, case):
    traj = CSV_CASES[case]()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    assert path.read_bytes() == _csv_reference(traj)


def _left_to_percent_in_a_block(n: int) -> Trajectory:
    y = _values(n, 1, True)
    y[n // 2] = 1e23  # see _tail_left_to_percent
    return Trajectory(TimeGrid(dt=1e-3, n_steps=n), y, _values(n, 2, True), _values(n, 3, True))


ONE_BLOCK_CASES = {
    "settled": lambda n: _settled(n, 700),
    "left-to-percent": _left_to_percent_in_a_block,
}


@pytest.mark.parametrize("n", [1024, 1025])  # one block of _textfmt._BLOCK values, and past it
@pytest.mark.parametrize("case", ONE_BLOCK_CASES)
def test_one_block_is_printed_by_percent(tmp_path, monkeypatch, n, case):
    # Up to one block, `%` prints the whole file and g17_rows is not called.
    calls = []
    g17_rows = _textfmt.g17_rows

    def counted(block):
        calls.append(len(block))
        return g17_rows(block)

    monkeypatch.setattr(_textfmt, "g17_rows", counted)
    traj = ONE_BLOCK_CASES[case](n)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    assert path.read_bytes() == _csv_reference(traj)
    assert bool(calls) == (n > _textfmt._BLOCK // 4)


@pytest.mark.parametrize("specials", [True, False], ids=["specials", "plain"])
@pytest.mark.parametrize("n", SIZES)
def test_svg_polylines_match_point_by_point(tmp_path, n, specials):
    t = np.cumsum(np.random.default_rng(0).uniform(0.0, 0.01, size=n)) - 2.0
    t[0] = -0.0
    curves = [_values(n, 4, specials), np.cos(np.linspace(0.0, 9.0, n))]
    path = tmp_path / "plot.svg"
    write_svg(path, t, [("a", curves[0]), ("", curves[1])])
    found = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert found == _polyline_reference(t, curves)

