"""Dependency-free SVG line plots with byte-deterministic output.

The same inputs always produce the same bytes: coordinates are formatted with
a fixed precision, colors come from a fixed palette, and nothing depends on
locale, time, or dict ordering.  That makes rendered plots safe to diff and
to check into golden-file tests.  Text that XML 1.0 or UTF-8 cannot carry
is refused before seriesio._overwrite opens the file.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path
from typing import Sequence

from .errors import InvariantViolation, _check_array

_WIDTH = 800
_HEIGHT = 500
_MARGIN_LEFT = 60
_MARGIN_RIGHT = 20
_MARGIN_TOP = 20
_MARGIN_BOTTOM = 45
_N_TICKS = 5
_RANGE_PAD = 0.05  # widen the value range 5% each side

_PALETTE = ("#1f6f8b", "#d1495b", "#edae49", "#30638e", "#66a182", "#8d96a3")


def write_svg(
    path: str | Path,
    times: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    *,
    title: str = "",
    y_label: str = "value",
) -> None:
    """Render one or more labelled lines over a shared time axis, its x
    axis labelled "time".

    Polyline coordinates are computed and formatted _textfmt._BLOCK // 2
    points at a time by _textfmt.f2_pairs; the bytes are those of
    formatting each point with "%.2f,%.2f".  The file is UTF-8.
    """
    from ._textfmt import _BLOCK, f2_pairs
    from .seriesio import _overwrite

    t = _check_array("times", times, min_size=2)
    curves = [(label, _check_array(f"series {label!r}", v, t.size)) for label, v in series]
    if not curves:
        raise InvariantViolation("need at least one series to plot")
    for name, text in [("title", title), ("y_label", y_label), *(("label", s) for s, _ in curves)]:
        if not isinstance(text, str):
            raise InvariantViolation(f"{name} must be a str, got {text!r}")
        if bad := re.search("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", text):
            raise InvariantViolation(f"{name} {text!r} holds {bad[0]!r}, which an SVG cannot carry")

    x_scale, x_min, x_max = _axis(float(t.min()), float(t.max()), pad=0.0)
    if x_scale != 1.0:
        t = t * x_scale
    lo = min(float(v.min()) for _, v in curves)
    hi = max(float(v.max()) for _, v in curves)
    y_scale, y_min, y_max = _axis(lo, hi, pad=_RANGE_PAD)
    if y_scale != 1.0:
        curves = [(label, v * y_scale) for label, v in curves]

    plot_left = _MARGIN_LEFT
    plot_right = _WIDTH - _MARGIN_RIGHT
    plot_top = _MARGIN_TOP
    plot_bottom = _HEIGHT - _MARGIN_BOTTOM

    # Scalars for tick positions, arrays for polyline blocks: the same
    # operations in the same order, so both round alike.
    def px(x):
        return plot_left + (x - x_min) / (x_max - x_min) * (plot_right - plot_left)

    def py(y):
        return plot_bottom - (y - y_min) / (y_max - y_min) * (plot_bottom - plot_top)

    parts: list[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')

    # Gridlines and tick labels.
    for i in range(_N_TICKS):
        frac = i / (_N_TICKS - 1)
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        xp = px(xv)
        yp = py(yv)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{plot_top}" x2="{xp:.2f}" y2="{plot_bottom}" '
            'stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{plot_left}" y1="{yp:.2f}" x2="{plot_right}" y2="{yp:.2f}" '
            'stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{plot_bottom + 16}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="#444444">{_tick(xv / x_scale)}</text>'
        )
        parts.append(
            f'<text x="{plot_left - 6}" y="{yp + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" fill="#444444">{_tick(yv / y_scale)}</text>'
        )

    parts.append(
        f'<rect x="{plot_left}" y="{plot_top}" width="{plot_right - plot_left}" '
        f'height="{plot_bottom - plot_top}" fill="none" stroke="#444444" stroke-width="1"/>'
    )

    # Legend in the top-right corner of the plot area.
    tail: list[str] = []
    labelled = [(i, label) for i, (label, _) in enumerate(curves) if label]
    for row, (idx, label) in enumerate(labelled):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = plot_top + 14 + 16 * row
        lx = plot_right - 130
        tail.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        tail.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11" fill="#222222">{_escape(label)}</text>'
        )

    if title:
        tail.append(
            f'<text x="{(plot_left + plot_right) / 2:.2f}" y="15" font-family="sans-serif" '
            f'font-size="13" text-anchor="middle" fill="#222222">{_escape(title)}</text>'
        )
    tail.append(
        f'<text x="{(plot_left + plot_right) / 2:.2f}" y="{_HEIGHT - 8}" '
        'font-family="sans-serif" font-size="12" text-anchor="middle" '
        'fill="#222222">time</text>'
    )
    tail.append(
        f'<text x="14" y="{(plot_top + plot_bottom) / 2:.2f}" font-family="sans-serif" '
        'font-size="12" text-anchor="middle" fill="#222222" '
        f'transform="rotate(-90 14 {(plot_top + plot_bottom) / 2:.2f})">{_escape(y_label)}</text>'
    )
    tail.append("</svg>")

    # Each polyline is written block by block as it is formatted, so the
    # document is never held whole.
    step = _BLOCK // 2
    with _overwrite(path) as fh:
        fh.write(("\n".join(parts) + "\n").encode())
        for idx, (_, v) in enumerate(curves):
            fh.write(b'<polyline points="')
            for i in range(0, t.size, step):
                if i:
                    fh.write(b" ")
                fh.write(f2_pairs(px(t[i : i + step]), py(v[i : i + step])))
            color = _PALETTE[idx % len(_PALETTE)]
            fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'.encode())
        fh.write(("\n".join(tail) + "\n").encode())


def _axis(lo: float, hi: float, pad: float) -> tuple[float, float, float]:
    """(scale, low, high) of an axis over values in [lo, hi]: at scale 1,
    the range widened by pad times its span each side (a flat line by 0.5,
    so that it still has a drawable band).  Where that span is zero or past
    the largest float, the plot shows the values times 1/4, so that even a
    span of twice the largest float, padded, stays finite; its padded ends
    stay within the largest float times the scale, so every tick label (a
    tick over the scale) is finite too."""
    if hi == lo:
        low, high = lo - 0.5, hi + 0.5
    else:
        span = hi - lo
        low, high = lo - pad * span, hi + pad * span
    if 0.0 < high - low < math.inf:
        return 1.0, low, high
    scale = 0.25
    lo, hi = lo * scale, hi * scale
    pad = _RANGE_PAD * (hi - lo) if hi > lo else abs(lo) / 4
    top = sys.float_info.max * scale
    return scale, max(lo - pad, -top), min(hi + pad, top)


def _tick(value: float) -> str:
    text = "%.4g" % value
    # normalize negative zero so ticks are stable across platforms
    return "0" if text == "-0" else text


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
