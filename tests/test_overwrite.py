"""How the two writers treat an existing output path: write_trajectory_csv
and write_svg write over the old bytes in place from offset 0 and cut a
regular file to the bytes written, follow symlinks, share hard links, keep
a file's permission bits, and write a device such as /dev/null as a stream.
"""

import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gapdyn import InvariantViolation, TimeGrid, Trajectory, write_svg, write_trajectory_csv
from gapdyn import _textfmt
from gapdyn.cli import main
from gapdyn.seriesio import _overwrite

# More rows than one formatted block, so the CSV is written in several.
_ROWS = 3000
_TRAJ = Trajectory(TimeGrid(0.1, _ROWS), *np.random.default_rng(30).standard_normal((3, _ROWS)))
_WRITERS = {
    "csv": lambda path: write_trajectory_csv(path, _TRAJ),
    "svg": lambda path: write_svg(path, _TRAJ.grid.times(), [("y", _TRAJ.y)], title="t"),
}
_POSIX = pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
_DEV_NULL = pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")


@pytest.fixture(params=sorted(_WRITERS))
def writer(request, tmp_path):
    """(write, bytes of a fresh write, a path prefilled with more bytes)."""
    write = _WRITERS[request.param]
    fresh = tmp_path / f"fresh.{request.param}"
    write(fresh)
    old = tmp_path / f"old.{request.param}"
    old.write_bytes(b"\x00stale\n" * (fresh.stat().st_size // 3))
    return write, fresh.read_bytes(), old


def test_over_a_longer_file_gives_the_fresh_bytes(writer):
    write, fresh, old = writer
    assert old.stat().st_size > len(fresh)
    write(old)
    assert old.read_bytes() == fresh


def test_a_symlink_is_followed_and_stays_a_link(writer, tmp_path):
    write, fresh, old = writer
    link = tmp_path / "link"
    try:
        link.symlink_to(old)
    except (OSError, NotImplementedError):
        pytest.skip("no symlinks here")
    write(link)
    assert link.is_symlink()
    assert old.read_bytes() == fresh


def test_a_hard_link_is_shared(writer, tmp_path):
    write, fresh, old = writer
    other = tmp_path / "other"
    os.link(old, other)
    write(other)
    assert old.read_bytes() == other.read_bytes() == fresh


@_POSIX
def test_an_existing_file_keeps_its_mode(writer):
    write, _, old = writer
    old.chmod(0o640)
    write(old)
    assert old.stat().st_mode & 0o777 == 0o640


@_POSIX
def test_a_new_file_gets_the_umask_mode(writer, tmp_path):
    write, *_ = writer
    mask = os.umask(0o027)
    try:
        write(tmp_path / "new")
    finally:
        os.umask(mask)
    assert (tmp_path / "new").stat().st_mode & 0o777 == 0o666 & ~0o027


@_DEV_NULL
def test_dev_null_is_written_as_a_stream(writer):
    write, *_ = writer
    write("/dev/null")


@_DEV_NULL
def test_simulate_to_dev_null(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("shock = white-noise\nshock_seed = 4\n")
    argv = ["simulate", "--config", str(cfg), "--out", "/dev/null", "--svg", "/dev/null"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("settling_time=")


def test_a_failed_csv_write_leaves_only_what_it_wrote(tmp_path, monkeypatch):
    # The second formatted block raises: the file holds the header and the
    # first block, with none of the old bytes after them.
    old = tmp_path / "old.csv"
    old.write_bytes(b"\x00stale\n" * 100000)
    g17_rows = _textfmt.g17_rows
    blocks = []

    def failing(values):
        if blocks:
            raise RuntimeError("stop")
        blocks.append(g17_rows(values))
        return blocks[-1]

    monkeypatch.setattr(_textfmt, "g17_rows", failing)
    with pytest.raises(RuntimeError, match="stop"):
        write_trajectory_csv(old, _TRAJ)
    assert old.read_bytes() == b"t,y,ydot,eps\n" + blocks[0]


def test_a_failed_write_is_cut_to_its_bytes(tmp_path):
    # What was written is flushed, then the file is cut after it.
    path = tmp_path / "out"
    path.write_bytes(b"old bytes, more of them")
    with pytest.raises(RuntimeError):
        with _overwrite(path) as fh:
            fh.write(b"new")
            raise RuntimeError
    assert path.read_bytes() == b"new"


@pytest.mark.parametrize("where", ["title", "y_label", "label"])
@pytest.mark.parametrize("char", ["\x01", "\x0b", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"])
def test_svg_text_no_xml_parser_reads_is_refused(tmp_path, where, char):
    # Refused before the file is opened: an existing file keeps its bytes.
    path = tmp_path / "plot.svg"
    path.write_bytes(b"x" * 60000)
    text = f"a{char}b"
    kwargs = {} if where == "label" else {where: text}
    label = text if where == "label" else "y"
    with pytest.raises(InvariantViolation, match=f"^{where} "):
        write_svg(path, [0.0, 1.0], [(label, [0.0, 1.0])], **kwargs)
    assert path.read_bytes() == b"x" * 60000


@pytest.mark.parametrize("where, text", [
    ("title", None), ("y_label", b"x"), ("label", None), ("label", 3),
])
def test_svg_text_that_is_not_a_str_is_refused(tmp_path, where, text):
    # Refused before the file is opened, as above.
    path = tmp_path / "plot.svg"
    path.write_bytes(b"x" * 60000)
    kwargs = {} if where == "label" else {where: text}
    label = text if where == "label" else "y"
    with pytest.raises(InvariantViolation, match=f"^{where} must be a str, got {text!r}$"):
        write_svg(path, [0.0, 1.0], [(label, [0.0, 1.0])], **kwargs)
    assert path.read_bytes() == b"x" * 60000


def test_svg_text_keeps_its_utf8_bytes(tmp_path):
    # The file is written in binary: the text's UTF-8 bytes go in as they
    # are, a CR included, with only & < > escaped.
    path = tmp_path / "plot.svg"
    text = "é γ \U0001f600\ttab\rcr <&>"
    write_svg(path, [0.0, 1.0], [(text, [0.0, 1.0])], title=text, y_label=text)
    escaped = "é γ \U0001f600\ttab\rcr &lt;&amp;&gt;".encode("utf-8")
    assert escaped == b"\xc3\xa9 \xce\xb3 \xf0\x9f\x98\x80\ttab\rcr &lt;&amp;&gt;"
    data = path.read_bytes()
    assert data.count(b">" + escaped + b"</text>") == 3  # legend, title and y label
    assert b"\r\n" not in data


def test_svg_text_xml_allows_parses(tmp_path):
    path = tmp_path / "plot.svg"
    text = "tab\tlf\ncr\r \x7f é \U0001f600 \ufffd <&>"
    write_svg(path, [0.0, 1.0], [(text, [0.0, 1.0])], title=text, y_label=text)
    root = ET.parse(path).getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1
