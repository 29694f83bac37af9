"""Exact numpy formatting of float64 blocks: the bytes of `%.17g` and `%.2f`.

%.17g: with a = |x| = f * 2**e and k = floor(log10(a)), the digits are
round-half-even(a * 10**(16 - k)).  10**p = (hi + lo) * 2**q is built
exactly from Python ints on first use, and a Dekker TwoProduct (Veltkamp
split, no fused multiply-add) gives a * 10**p to about 2**-100.  A value
goes to `%` on its own when its fraction lies within _GUARD of one half
(exact ties included), when log10 put k one off next to a power of ten, or
when it is not finite.  Digits fill a fixed row of slots (_G17_SLOTS), and
a keep-mask looked up by form, digit count and sign picks what %g prints.

%.2f: round-half-even(x * 100) is decided exactly from TwoProduct(x, 100).
A block with a sign bit, a non-finite value or a value that rounds to
1000.00 or more goes to `%` whole.
"""

from __future__ import annotations

import functools

import numpy as np

# One %.17g field: sign | "0" | 17 integer digits | "." | 3 zeros |
# 17 fraction digits | "e" | exponent sign | 3 exponent digits | separator.
# The digits are written to both digit runs; the mask picks what to keep.
_G17_SLOTS = b"-0" + b"#" * 17 + b".000" + b"#" * 17 + b"e+###,"
_INT, _DOT, _FRAC, _EXP = 2, 19, 23, 40
# %g forms: 0-20 fixed with exponent k = form - 4, 21 exponent with two
# exponent digits, 22 with three, 23 a value left to `%`.
_EXP2, _EXP3, _LEFT = 21, 22, 23
# A fraction of a * 10**p this close to 1/2 goes to `%`; the double-double
# product is accurate to ~1e-15 there, so the band is wide on purpose.
_GUARD = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


@functools.cache
def _quads() -> np.ndarray:
    """"0000" ... "9999" as little-endian uint32, indexed by value."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2").astype("<u4")
    return (pairs[:, None] | pairs << 16).ravel().astype("<u4")


@functools.cache
def _exponents() -> np.ndarray:
    """"-400" ... "+399" as little-endian uint32, indexed by exponent + 400."""
    return np.frombuffer("".join(f"{k:+04d}" for k in range(-400, 400)).encode(), "<u4")


@functools.cache
def _cents() -> np.ndarray:
    """".00," ... ".99," as little-endian uint32, indexed by value."""
    return np.frombuffer("".join(f".{i:02d}," for i in range(100)).encode(), "<u4")


@functools.cache
def _g17_masks() -> np.ndarray:
    """Slot keep-masks indexed by (form * 17 + significant digits - 1) * 2 + sign."""
    form, sig, sign = (g.reshape(-1, 1) for g in np.meshgrid(
        np.arange(24), np.arange(1, 18), np.arange(2), indexing="ij"))
    k = form - 4
    fixed = form < _EXP2
    whole = np.where(fixed, np.maximum(k + 1, 0), 1)
    col = np.arange(17)
    keep = np.zeros((form.size, len(_G17_SLOTS)), bool)
    keep[:, :1] = sign == 1
    keep[:, 1:2] = fixed & (k < 0)
    keep[:, _INT:_DOT] = col < whole
    keep[:, _DOT : _DOT + 1] = sig > whole
    keep[:, _DOT + 1 : _FRAC] = col[:3] < np.where(fixed & (k < 0), -1 - k, 0)
    keep[:, _FRAC:_EXP] = (col >= whole) & (col < sig)
    keep[:, _EXP : _EXP + 5] = ~fixed
    keep[:, _EXP + 2 : _EXP + 3] &= form == _EXP3
    keep[(form == _LEFT)[:, 0]] = False
    keep[:, -1] = True
    return keep


@functools.cache
def _pow10(p: int) -> tuple[float, float, float, float, int]:
    """10**p = (hi + lo) * 2**q to double-double precision, hi in (1/2, 2);
    returns (hi, hi's Veltkamp halves, lo, q)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    q = num.bit_length() - den.bit_length()
    num, den = (num, den << q) if q >= 0 else (num << -q, den)
    hi = num / den  # int / int is correctly rounded
    hn, hd = hi.as_integer_ratio()
    lo = (num * hd - hn * den) / (den * hd)
    hh, hl = _split(hi)
    return hi, hh, hl, lo, q


def _split(x):
    """Veltkamp split: x = hi + lo exactly, each with at most 26 bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def g17_rows(block: np.ndarray) -> bytes:
    """`"%.17g,...,%.17g\\n" % row` for every row of an (n, m) float64 block."""
    n, m = block.shape
    x = block.ravel()
    cnt = x.size
    digits, k, left = _digits17(x)
    sig = _significant(digits)

    slots = np.empty((n, m * len(_G17_SLOTS)), np.uint8)
    slots[:] = np.frombuffer((_G17_SLOTS * m)[:-1] + b"\n", np.uint8)
    slots = slots.reshape(cnt, -1)
    slots[:, _INT:_DOT] = digits
    slots[:, _FRAC:_EXP] = digits
    slots[:, _EXP + 1 : _EXP + 5] = np.take(_exponents(), k + 400).view(np.uint8).reshape(cnt, 4)
    form = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, _EXP2, _EXP3))
    form[left] = _LEFT
    keep = np.take(_g17_masks(), ((form * 17 + sig - 1) << 1) + np.signbit(x), axis=0)
    text = slots[keep].tobytes()
    odd = np.flatnonzero(left)
    if not odd.size:
        return text
    # Splice each value left to `%` in front of its separator.
    ends = np.cumsum(keep.sum(axis=1))[odd] - 1
    pieces, start = [], 0
    for end, v in zip(ends.tolist(), x[odd].tolist()):
        pieces += [text[start:end], _g17(v)]
        start = end
    pieces.append(text[start:])
    return b"".join(pieces)


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(17 ASCII digits, decimal exponent k, left to `%`) per value of x;
    zeros and values left to `%` give "00000000000000000" and k = 0."""
    a = np.abs(x)
    finite = np.isfinite(a)
    regular = finite & (a > 0.0)
    a[~regular] = 1.0
    k = np.floor(np.log10(a))
    top, low = _times_pow10(a, (16.0 - k).astype(np.intp))
    whole = np.floor(top)
    rest = (top - whole) + low
    carry = np.floor(rest)
    frac = rest - carry
    # N = floor(a * 10**p) = head * 10**9 + tail, both exact float integers.
    head = np.floor(whole / 1e9)
    tail = (whole - head * 1e9) + carry
    carry = np.floor(tail / 1e9)
    head += carry
    tail -= carry * 1e9
    # An off-by-one k shows as N outside [10**16, 10**17).
    left = ~finite | (regular & ((np.abs(frac - 0.5) < _GUARD) | (head < 1e7) | (head >= 1e8)))
    # Exact halves are left to `%`, so rounding half up is round-half-even.
    tail += frac > 0.5
    carry = tail == 1e9
    head += carry
    tail[carry] = 0.0
    carry = head == 1e8  # 10**17 is 10**16 at exponent k + 1
    head[carry] = 1e7
    k += carry
    blank = ~regular | left
    head[blank] = tail[blank] = k[blank] = 0.0
    return _ascii17(head, tail), k.astype(np.intp), left


def _ascii17(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of head * 10**9 + tail: the 4-digit groups of
    head and of tail // 10, then tail's last digit."""
    eights = np.stack((head, np.floor(tail / 10.0)), axis=1)
    highs = np.floor(eights / 1e4)
    groups = np.stack((highs, eights - 1e4 * highs), axis=2).astype(np.intp)
    digits = np.empty((head.size, 17), np.uint8)
    digits[:, :16] = np.take(_quads(), groups).view(np.uint8).reshape(-1, 16)
    digits[:, 16] = tail - 10.0 * eights[:, 1] + 48.0
    return digits


def _times_pow10(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**p as top + low: TwoProduct of a's mantissa f and hi, plus f * lo."""
    base = int(p.min())
    p = p - base
    used = np.flatnonzero(np.bincount(p))
    table = np.empty((5, used[-1] + 1))
    table[:, used] = np.array([_pow10(base + i) for i in used.tolist()]).T
    hi, hh, hl, lo, q = table[:, p]
    f, e = np.frexp(a)
    fh, fl = _split(f)
    top = f * hi
    low = ((fh * hh - top) + fh * hl + fl * hh) + fl * hl + f * lo
    e = e + q.astype(np.intp)
    return np.ldexp(top, e), np.ldexp(low, e)


def _significant(digits: np.ndarray) -> np.ndarray:
    """Digits up to the last nonzero one, at least one ("0" has one)."""
    nonzero = digits != 48
    nonzero[:, 0] = True
    return 17 - np.argmax(nonzero[:, ::-1], axis=1)


def _g17(v: float) -> bytes:
    """One value printed by `%`, for the values g17_rows leaves to it."""
    return b"%.17g" % v


def f2_pairs(xs: np.ndarray, ys: np.ndarray) -> str:
    """`" ".join("%.2f,%.2f" % (x, y) for x, y in zip(xs, ys))`."""
    v = np.column_stack((xs, ys)).ravel()
    if not np.all((v < 1000.0) & ~np.signbit(v)):
        return _f2_pairs_slow(v)
    # v * 100 = top + err exactly; 100 splits into (100, 0).
    top = v * 100.0
    vh, vl = _split(v)
    err = (vh * 100.0 - top) + vl * 100.0
    whole = np.floor(top)
    half = (top - whole) - 0.5  # exact
    odd = np.floor(whole * 0.5) * 2.0 != whole
    n = whole + ((half > -err) | ((half == -err) & odd))
    if n.size and n.max() >= 1e5:
        return _f2_pairs_slow(v)
    units = np.floor(n / 100.0)
    # Per value "0ddd" then ".dd," (" " after a y); drop the padding zeros.
    words = np.empty((v.size, 2), "<u4")
    words[:, 0] = np.take(_quads(), units.astype(np.intp))
    words[:, 1] = np.take(_cents(), (n - 100.0 * units).astype(np.intp))
    slots = words.view(np.uint8)
    slots[1::2, -1] = 32
    keep = np.ones(slots.shape, bool)
    keep[:, 0] = False
    keep[:, 1] = units >= 100.0
    keep[:, 2] = units >= 10.0
    keep[-1:, -1] = False
    return slots[keep].tobytes().decode("ascii")


def _f2_pairs_slow(v: np.ndarray) -> str:
    return " ".join(["%.2f,%.2f"] * (v.size // 2)) % tuple(v.tolist())
