"""Memory that grows with an input: long series stay in float64 arrays.

tracemalloc sees numpy's buffers as well as Python objects, so a traced
peak counts both.  Each bound is a multiple of the arrays the call must
return, or of the file it reads, measured on this code with a margin.
"""

import os
import tracemalloc

import numpy as np

from gapdyn import (
    Ar1,
    OscillatorParams,
    OscState,
    TimeGrid,
    WhiteNoise,
    analytic_trajectory,
    read_series_csv,
    realize,
)

# Grid-sized costs are compared in arrays of one float64 per node, a ratio
# that does not depend on the grid: a short one keeps the traced loops quick.
GRID = TimeGrid(0.1, 10_001)
ARRAY = 8 * GRID.n_steps
SMALL = TimeGrid(0.1, 3)  # for a first call, which imports what the call needs


def _peak(call) -> int:
    """Traced peak bytes of call(), past what was live when it started."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ar1_costs_no_more_than_white_noise():
    # White noise is the draws times a scale; the AR(1) recursion may add
    # at most its own output array to that, and no per-node Python floats.
    realize(Ar1(), SMALL), realize(WhiteNoise(), SMALL)
    white = _peak(lambda: realize(WhiteNoise(0.1, 3), GRID))
    assert _peak(lambda: realize(Ar1(0.9, 0.1, 3), GRID)) <= white + ARRAY


def test_analytic_trajectory_holds_no_per_node_objects():
    # times, y, ydot and forcing, and the Trajectory's three copies: 7.
    params, init = OscillatorParams(0.5, 2.0), OscState(1.0, 0.0)
    analytic_trajectory(params, init, SMALL)
    assert _peak(lambda: analytic_trajectory(params, init, GRID)) <= 8 * ARRAY


# Traced peak of read_series_csv over the size of a 200 001-row t,y file of
# 17-digit values (7.1 MB): 1.94 here, 2.36 when _spacing made four
# temporaries the size of the time column, 4.93 when the text was parsed whole.
_READ_PEAK_PER_FILE_BYTE = 2.1


def test_read_series_in_bounded_memory(tmp_path):
    n = 200_001  # 7.1 MB, many blocks
    y = np.cumsum(np.random.default_rng(1).standard_normal(n)) * 0.01
    path = tmp_path / "long.csv"
    rows = zip(TimeGrid(0.1, n).times().tolist(), y.tolist())
    path.write_text("t,y\n" + "".join("%.17g,%.17g\n" % row for row in rows))
    assert read_series_csv(path).values.tobytes() == y.tobytes()  # and the first call
    peak = _peak(lambda: read_series_csv(path))
    assert peak <= _READ_PEAK_PER_FILE_BYTE * os.path.getsize(path)
