"""CSV persistence for trajectories and observed series.

Trajectories are written with full float round-trip precision (%.17g) so a
written file reloads to bit-identical values.  Readers only require the first
two columns (`t,y`); anything after them is ignored, which lets estimation
consume both bare observation files and the four-column trajectory format.

_overwrite writes every output file, svgplot's too: a regular file (or a
symlink's target) in place and cut to length, a device or FIFO as a stream.
An exception leaves the bytes written; a kill can leave old bytes after them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import stat
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator

import numpy as np

from .errors import BadEncoding, BadNumber, InvariantViolation, MissingHeader, NonUniformSpacing

if TYPE_CHECKING:
    from .estimation import ObservedSeries
    from .integrate import Trajectory

# Successive time deltas may differ from the first delta by at most this
# relative amount before the grid is rejected as non-uniform.
_SPACING_REL_TOL = 1e-9
# Bytes that send a file to the row-by-row reader: csv quoting, and the
# ASCII separators that numpy's float parser strips and float() rejects.
# No other UTF-8 character holds an ASCII byte.
_ROW_READER_ONLY = b'"\x1c\x1d\x1e\x1f'
# Bytes of a file that the plain reader decodes and hands to numpy at once
# (more when one line is longer): a series of a few thousand rows is one
# block.  Bounds a temporary; it is not a tuning knob.
_READ_BLOCK_BYTES = 256 * 2**10

_TRAJECTORY_HEADER = b"t,y,ydot,eps\n"


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Write `t,y,ydot,eps` rows at full round-trip precision.

    The bytes are those of formatting each row with
    "%.17g,%.17g,%.17g,%.17g\\n".  A trajectory that fits in one
    _textfmt._BLOCK, at most _BLOCK // 4 rows, is formatted by `%` whole
    (the _textfmt docstring says why).  Longer ones are formatted _BLOCK
    values at a time by _textfmt.g17_rows, and a settled run ends in rows
    whose (y, ydot, eps) never change bit for bit: from the first of them
    on, only t is formatted per row, and "y,ydot,eps\\n" is formatted once
    and put in place of t's "\\n".
    """
    from ._textfmt import _BLOCK, _g17_slow, g17_rows
    from .integrate import _settled_from

    times = traj.grid.times()
    columns = (times, traj.y, traj.ydot, traj.forcing)
    n = traj.grid.n_steps
    step = _BLOCK // 4
    with _overwrite(path) as fh:
        fh.write(_TRAJECTORY_HEADER)
        if n <= step:
            fh.write(_g17_slow(np.column_stack(columns)))
            return
        head = _settled_from(columns[1:]) + 1  # rows formatted whole
        for i in range(0, head, step):
            fh.write(g17_rows(np.column_stack([col[i : min(i + step, head)] for col in columns])))
        if head < n:
            rest = b"," + g17_rows(np.array([[col[head - 1] for col in columns[1:]]]))
            for i in range(head, n, _BLOCK):
                fh.write(g17_rows(times[i : i + _BLOCK, None]).replace(b"\n", rest))


@contextlib.contextmanager
def _overwrite(path: str | Path) -> Iterator[IO[bytes]]:
    with open(path, "wb", opener=lambda p, f: os.open(p, f & ~os.O_TRUNC, 0o666)) as fh:
        try:
            yield fh
        finally:  # cut a regular file to the bytes written; a device cannot be cut
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def read_series_csv(path: str | Path) -> ObservedSeries:
    """Load an observed series from a CSV whose header starts with `t,y`.

    The time column must be uniformly spaced; every value must be finite.
    Files with fewer than two data rows cannot define a spacing and are
    rejected.

    A plain file is read by numpy's text reader, and its values and spacing
    are checked on arrays.  Plain means: the header passes, the text holds
    no `"` and none of the separator characters U+001C-U+001F (which numpy
    strips around a number and `float()` does not), and `np.loadtxt` parses
    two or more rows that are finite and uniformly spaced.  Every other file
    goes to the row-by-row reader, which raises every error but BadEncoding
    (worded as by read_text, on either path).  Both paths convert cells
    through the same C routine and test spacing with `_spacing`, so they
    give the same series.

    The plain path holds the file's bytes and, past them, the lines of
    about _READ_BLOCK_BYTES of text at a time and the two float columns: a
    long series costs about 1.9 times its file.  The row reader holds the
    whole text and Python lists of the rows, about 8 times the file.
    """
    data = Path(path).read_bytes()
    series = _read_plain(path, data)
    if series is not None:
        return series
    text = _decode(path, data)
    del data  # the row reader holds the text, and not the bytes too
    return _read_rows(path, text)


def _read_plain(path: str | Path, data: bytes) -> ObservedSeries | None:
    """The series in the bytes `data` of a plain file, or None to leave the
    file to _read_rows.

    A file that holds a byte of _ROW_READER_ONLY is left to _read_rows
    before anything is decoded.  Other files go to numpy in blocks of about
    _READ_BLOCK_BYTES, each ending at a b"\n" (or the file's end), which
    never falls inside a UTF-8 sequence, so a block decodes on its own and
    BadEncoding names the file offset of the first bad byte.  A block's
    text is split once at "\n"; the first line of the first block is the
    header, and the list goes to np.loadtxt whole, which reads each item as
    one line (a CR before the "\n" ends it, a lone CR inside it fails the
    parse).  A list of lines costs numpy less than a file object over the
    same text.  A block with no data line is skipped: np.loadtxt warns on
    one.
    """
    from .estimation import ObservedSeries

    if any(byte in data for byte in _ROW_READER_ONLY):
        return None
    view = memoryview(data)
    blocks = []
    start = 0
    while start < len(data):
        stop = start + _READ_BLOCK_BYTES
        end = len(data)
        if stop < end:  # the last b"\n" before stop, else the first after it
            end = data.rfind(b"\n", start, stop) + 1 or data.find(b"\n", stop) + 1 or end
        # Not splitlines(): it also ends lines at \v, \f, U+001C-U+001E, U+0085,
        # U+2028 and U+2029, where csv and numpy do not.
        lines = _decode(path, view[start:end], start).split("\n")
        skip = 1 if start == 0 else 0
        if skip:
            header = lines[0].removesuffix("\r")
            # csv ends a row at a lone CR too; such a header is not plain.
            if "\r" in header or [c.strip().lower() for c in header.split(",")[:2]] != ["t", "y"]:
                return None
        if any(map(str.strip, lines[skip:])):
            try:
                blocks.append(np.loadtxt(
                    lines, delimiter=",", comments=None, skiprows=skip, usecols=(0, 1), ndmin=2
                ))
            except ValueError:
                return None
        start = end
    if not blocks:  # no rows
        return None
    table = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    del blocks  # their rows now live in table alone
    if len(table) < 2 or not np.isfinite(table).all():
        return None
    dt, off_grid = _spacing(table[:, 0])
    return None if dt <= 0.0 or off_grid else ObservedSeries(dt=dt, values=table[:, 1])


def _read_rows(path: str | Path, text: str) -> ObservedSeries:
    """read_series_csv row by row: csv cells and float(), rows numbered from
    1 in file order.  A row csv cannot split (a cell over its field size
    limit, say) raises BadNumber naming that row."""
    from .estimation import ObservedSeries

    times: list[float] = []
    values: list[float] = []
    rownums: list[int] = []
    rownum = 0
    try:
        for rownum, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            if rownum == 1:
                if [cell.strip().lower() for cell in row[:2]] != ["t", "y"]:
                    raise MissingHeader(
                        f"{path}: header must start with 't,y', got {','.join(row)!r}"
                    )
            elif not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank row
            elif len(row) < 2:
                raise BadNumber(f"{path}: row {rownum}: expected at least 2 columns")
            else:
                times.append(_parse_cell(path, rownum, "t", row[0]))
                values.append(_parse_cell(path, rownum, "y", row[1]))
                rownums.append(rownum)
    except csv.Error as exc:
        raise BadNumber(f"{path}: row {rownum + 1}: {exc}") from None
    if rownum == 0:
        raise MissingHeader(f"{path}: empty file")
    if len(values) < 2:
        raise InvariantViolation(f"{path}: need at least 2 data rows, got {len(values)}")
    dt, i = _spacing(np.array(times))
    if dt <= 0.0:
        raise NonUniformSpacing(f"{path}: time column must be strictly increasing")
    if i:
        step = times[i] - times[i - 1]
        raise NonUniformSpacing(f"{path}: row {rownums[i]}: spacing {step!r} differs from {dt!r}")
    return ObservedSeries(dt=dt, values=values)


def _spacing(times: np.ndarray) -> tuple[float, int]:
    """First spacing dt of a time column, and the index of the first node
    whose step misses dt by over _SPACING_REL_TOL relative (0 if none)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a step past the float range is inf
        steps = np.diff(times)
        dt = float(steps[0])
        # In place: a long read peaks here, beside its bytes and its table.
        bound = np.abs(steps)
        np.maximum(bound, abs(dt), out=bound)
        bound *= _SPACING_REL_TOL
        steps -= dt
        off = np.abs(steps, out=steps) > bound
    return dt, int(np.argmax(off)) + 1 if off.any() else 0


def read_text(path: str | Path) -> str:
    """Whole file as text.  Input files are UTF-8; other bytes raise
    BadEncoding with the offset of the first one that does not decode."""
    return _decode(path, Path(path).read_bytes())


def _decode(path: str | Path, data, offset: int = 0) -> str:
    """The bytes-like `data`, which starts at byte `offset` of the file
    `path`, as UTF-8 text; BadEncoding names the file offset of the first
    byte that does not decode."""
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{path}: byte {offset + exc.start} is not valid UTF-8") from None


def _parse_cell(path: str | Path, rownum: int, column: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise BadNumber(
            f"{path}: row {rownum}: column {column!r} is not a number: {cell.strip()!r}"
        ) from None
    if not math.isfinite(value):
        raise BadNumber(f"{path}: row {rownum}: column {column!r} is not finite")
    return value
