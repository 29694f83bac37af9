"""read_series_csv's two paths agree: numpy's text reader on plain files,
the row-by-row reader on every other file and for every error.

Property tests use hypothesis (MacIver et al., "Hypothesis: A new approach
to property-based testing", JOSS 4(43), 2019).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapdyn import BadEncoding, TimeGrid, Trajectory, read_series_csv, write_trajectory_csv
from gapdyn.seriesio import _read_plain, _read_rows, read_text

_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Whitespace as float() sees it (ASCII, NBSP, ideographic space, NEL) and the
# ASCII separators U+001C/U+001F, which only numpy strips.
_SPACES = " \t\x0b\x0c\xa0\u3000\x85\x1c\x1f"
_ODD_CELLS = [
    "1_0", "\uff11", "\u0663.5", "nan", "inf", "-inf", "1e400", "-1e400", "1e-400",
    "", "fast", "0x10", "+1", ".5", "5.", "-0", "Infinity", '"1.5"', '"1\n"', '"t"',
    "1\x00",
]
_EXTRA_CELLS = ["", "x", "1.5", '"a,b"', '"q\nr"', "\u00e9"]
_JUNK_LINES = ["", " ", "\t", "\xa0", " \x0c ", "\x1c"]
_HEADERS = [
    "t,y", " T , Y ", "t,y,ydot,eps", "t,Y,", "time,gap", "y,t", '"t","y"', "t", "",
    "t\r,y", "\ufefft,y", "t\x1c,y",
]


@st.composite
def series_texts(draw) -> str:
    """A series file with some of: whitespace around cells, blank and
    whitespace-only lines, extra columns, CRLF and CR line endings, quoted
    cells (one holding a newline), non-float cells, and broken spacing."""
    n = draw(st.integers(0, 12))
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 1e-3, 7.0]))
    t0 = draw(st.sampled_from([0.0, -1.0, 3.3]))
    # Per-file perturbation rate in percent, so clean files are common too.
    rate = draw(st.sampled_from([0, 2, 10, 30]))
    often = st.integers(0, 99).map(lambda k: k < rate)
    lines = [draw(st.sampled_from(_HEADERS)) if draw(often) else "t,y"]
    for i in range(n):
        t = t0 + i * dt
        if draw(often):
            t += draw(st.sampled_from([dt * 1e-6, -dt * 1e-10, dt, -dt, -2 * dt]))
        y = draw(st.floats(allow_nan=False, allow_infinity=False))
        fmt = draw(st.sampled_from(["%r", "%.17g", "%.6g"]))
        cells = [fmt % t, fmt % y]
        for k in range(2):
            if draw(often):
                cells[k] = draw(st.sampled_from(_ODD_CELLS))
            if draw(often):
                pad = st.text(alphabet=_SPACES, max_size=2)
                cells[k] = draw(pad) + cells[k] + draw(pad)
        if draw(often):
            cells += draw(st.lists(st.sampled_from(_EXTRA_CELLS), min_size=1, max_size=2))
        if draw(often):
            cells = cells[:1]
        lines.append(",".join(cells))
        if draw(often):
            lines.append(draw(st.sampled_from(_JUNK_LINES)))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    ending = draw(endings)
    out = []
    for line in lines:
        out.append(line + (draw(endings) if draw(often) else ending))
    if draw(often):
        out[-1] = lines[-1]  # no final line ending
    return "".join(out)


def _outcome(read):
    """What a read gives: dt and value bits, or the exception type and text."""
    try:
        series = read()
    except Exception as exc:  # the paths must agree on every failure, not only ours
        return "error", type(exc), str(exc)
    assert type(series.dt) is float
    return "ok", series.dt.hex(), series.values.dtype, series.values.tobytes()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("paths") / "series.csv"


@_SETTINGS
@given(text=series_texts())
def test_read_matches_row_by_row(csv_path, text):
    csv_path.write_bytes(text.encode("utf-8"))
    got = _outcome(lambda: read_series_csv(csv_path))
    want = _outcome(lambda: _read_rows(csv_path, read_text(csv_path)))
    assert got == want


@settings(_SETTINGS, max_examples=100)
@given(text=series_texts())
def test_read_matches_row_by_row_in_small_blocks(csv_path, monkeypatch, text):
    # test_read_matches_row_by_row with the plain reader's blocks cut to a
    # few dozen bytes, so most files span several blocks and some lines
    # run past a block's end.
    monkeypatch.setattr("gapdyn.seriesio._READ_BLOCK_BYTES", 32)
    test_read_matches_row_by_row.hypothesis.inner_test(csv_path, text)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocks_end_at_newlines(monkeypatch, block):
    # Lines of several lengths around the block size, a blank line at a
    # block's start, CRLF endings and no final newline.
    monkeypatch.setattr("gapdyn.seriesio._READ_BLOCK_BYTES", block)
    data = b"t,y\r\n0,1.5\r\n\r\n0.5,2\r\n1.0,-3.25e-300\r\n1.5," + b"4" * 90
    series = _read_plain("series.csv", data)
    assert (series.dt, series.values.tolist()) == (0.5, [1.5, 2.0, -3.25e-300, float("4" * 90)])


def test_a_bad_byte_is_named_by_its_file_offset(csv_path, monkeypatch):
    monkeypatch.setattr("gapdyn.seriesio._READ_BLOCK_BYTES", 8)
    csv_path.write_bytes(b"t,y\n0,1\n1,2\n2,3\n3,\xe9\n")
    with pytest.raises(BadEncoding, match=r"byte 18 is not valid UTF-8$"):
        read_series_csv(csv_path)


@_SETTINGS
@given(
    dt=st.floats(1e-3, 10.0),
    y=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=50),
)
def test_trajectory_csv_round_trips_bit_for_bit(csv_path, dt, y):
    grid = TimeGrid(dt=dt, n_steps=len(y))
    zeros = np.zeros(len(y))
    write_trajectory_csv(csv_path, Trajectory(grid, np.array(y), zeros, zeros))
    series = read_series_csv(csv_path)
    times = grid.times()
    assert series.dt.hex() == float(times[1] - times[0]).hex()
    assert series.values.tobytes() == np.array(y).tobytes()


# Characters where str.splitlines ends a line and csv and numpy do not.  Each
# body reads as a valid series only if the row is broken there.
@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_end_only_at_newlines(csv_path, char):
    csv_path.write_bytes(f"t,y\n0,1{char}1,2\n2,3\n".encode("utf-8"))
    got = _outcome(lambda: read_series_csv(csv_path))
    assert got == _outcome(lambda: _read_rows(csv_path, read_text(csv_path)))
    assert got[0] == "error"


def test_lone_cr_in_a_crlf_file(csv_path):
    csv_path.write_bytes(b"t,y\r\n0,1\r\n1,2\r2,3\r\n3,4\r\n")
    got = _outcome(lambda: read_series_csv(csv_path))
    assert got == _outcome(lambda: _read_rows(csv_path, read_text(csv_path)))
    assert got[0] == "ok"


@pytest.mark.parametrize(
    "text",
    [
        "t,y,ydot,eps\n0,1,0,0\n0.5,2,0,0\n1,3,0,0\n",
        "T , Y\r\n0,1\r\n\r\n0.5,2\r\n1,3\r\n",
        "t,y\n 0 ,\xa01\n0.5,2,\n1,3",
    ],
)
def test_plain_files_take_the_numpy_path(text):
    series = _read_plain("series.csv", text.encode("utf-8"))
    assert series is not None
    assert series.dt == 0.5
    assert series.values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "text",
    [
        't,y\n0,"1"\n0.5,2\n',  # quoted cell
        "t,y\r0,1\r0.5,2\r",  # CR-only line endings
        "t,y\n0,1\n  \n0.5,2\n",  # whitespace-only line
        "t,y\n0,1_0\n0.5,2\n",  # underscore in a number
        "t,y\n0,1\x1c\n0.5,2\n",  # separator that only numpy strips
        "t,y\n0,1\n",  # one row
        "t,y\n0,nan\n0.5,2\n",
        "t,y\n0,1\n0.5,2\n1.1,3\n",  # broken spacing
        "t,y\n0.5,1\n0,2\n",  # decreasing time
        "t,y\n0,1\n0,2\n",  # repeated time
        "t\r,y\n0,1\n0.5,2\n",  # csv ends the header at the CR
    ],
)
def test_other_files_take_the_row_by_row_path(text):
    assert _read_plain("series.csv", text.encode("utf-8")) is None
