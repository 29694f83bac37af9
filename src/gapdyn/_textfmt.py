"""Exact numpy formatting of float64 blocks: the bytes of `%.17g` and `%.2f`.

%.17g: with a = |x| and k = floor(log10(a)), the digits are
round-half-even(a * 10**(16 - k)), carried as one int64 in [10**16, 10**17).
Per k, 10**(16 - k) = (hi + lo) * s * s' with hi in (1/2, 2) and s, s'
powers of two, built exactly from Python ints; the table of all 633 k is
built whole on first use.  a * s * s' is exact and lies near 10**16, so a
Dekker TwoProduct (Veltkamp split, no fused multiply-add) of it with hi,
plus its product with lo, gives a * 10**(16 - k) = top + low to about
2**-100 with no rescaling.  top >= 10**16 - 16 > 2**53 is an integer, so
the digits are int64(top) + int64(floor(low)) exactly.  A value goes to `%`
on its own when its fraction lies within _GUARD of one half (exact ties
included), when log10 put k one off next to a power of ten, or when it is
not finite.

The digits go 4 at a time from a table into two runs of a fixed row of
slots (_G17_WIDTH); a "." is written over the second run where %g puts it,
and one table word per exponent gives the exponent and separator.  The
number of significant digits comes from per-group tables, and a keep-mask
looked up by form, digit count and sign picks what %g prints: the sign and
integer digits from the first run, then one run from the "." (or the "0."
before it) to the separator.  One boolean index compresses the block, and
it copies few runs per field.

%.2f: round-half-even(x * 100) is decided exactly from TwoProduct(x, 100).
A block with a sign bit, a non-finite value or a value that rounds to
1000.00 or more goes to `%` whole.
"""

from __future__ import annotations

import functools

import numpy as np

# One %.17g field is a row of 46 slots: "-" | 1-17 the 17 digits |
# 18-22 "00000" | 23-39 the 17 digits again | 40-45 the exponent and
# separator, written as one word from slot 38 before the digits.
_G17_WIDTH = 46
_SIGN, _INT, _ZEROS, _FRAC, _LAST = 0, 1, 18, 23, 39
# Row indices of the per-exponent tables: k + _K0 for k in [-324, 308], then
# zero and values left to `%`; the second _NK rows end in "\n", not ",".
_K0 = 324
_ZERO, _LEFT, _NK = 633, 634, 635
# %g forms: 0-20 fixed with exponent k = form - 4, 21 exponent with two
# exponent digits, 22 with three, 23 zero, 24 a value left to `%`.
_EXP2, _EXP3, _ZERO_FORM, _LEFT_FORM = 21, 22, 23, 24
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
def _group_digits() -> np.ndarray:
    """Row j, value g: how many of the first 4 * (j + 1) digits are
    significant when g is digits 4j + 1 to 4j + 4 and every later digit is
    zero; 0 for g = 0.  (The first group is never 0: the digits are >= 10**16.)"""
    zeros = np.zeros(10000, np.uint8)
    for i in (10, 100, 1000):
        zeros[::i] += 1
    table = np.arange(4, 17, 4, dtype=np.uint8)[:, None] - zeros
    table[:, 0] = 0
    return table


@functools.cache
def _cents() -> np.ndarray:
    """".00," ... ".99," as little-endian uint32, indexed by value."""
    return np.frombuffer("".join(f".{i:02d}," for i in range(100)).encode(), "<u4")


@functools.cache
def _g17_masks() -> np.ndarray:
    """Slot keep-masks indexed by (form * 17 + significant digits - 1) * 2 + sign."""
    form, sig = (g.reshape(-1, 1) for g in np.meshgrid(np.arange(25), np.arange(1, 18), indexing="ij"))
    k = form - 4
    fixed = form < _EXP2
    whole = np.where(fixed, np.maximum(k + 1, 0), 1)
    # The second run is kept from its "." on, or from the "0" before it.
    start = np.where(fixed & (k < 0), _FRAC + k - 1, _FRAC + whole - 1)
    tail = np.where(form == _EXP2, 5, np.where(form == _EXP3, 6, 1))
    col = np.arange(_G17_WIDTH)
    keep = (
        ((col >= _INT) & (col < _INT + whole))
        | ((col >= start) & (col < _FRAC + sig) & (sig > whole))
        | ((col > _LAST) & (col <= _LAST + tail))
    )
    keep[(form >= _ZERO_FORM)[:, 0]] = col == _LAST + 1
    keep[(form == _ZERO_FORM)[:, 0], _LAST] = True
    keep = np.repeat(keep, 2, axis=0)
    keep[1 : -2 * 17 : 2, _SIGN] = True  # not for a value left to `%`, which prints it
    return keep


@functools.cache
def _g17_codes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per table row: the form's first keep-mask row less 2, to which
    2 * significant digits + sign is added; the slot of the "."; the
    exponent and separator as the uint64 word of slots 38-45, whose first
    two bytes the digits then take."""
    k = np.arange(_NK) - _K0
    fixed = (k >= -4) & (k <= 16)
    form = np.where(fixed, k + 4, np.where(np.abs(k) < 100, _EXP2, _EXP3))
    form[[_ZERO, _LEFT]] = _ZERO_FORM, _LEFT_FORM
    dot = np.where(fixed, _FRAC + k, _FRAC)
    e = np.abs(k)
    chars = np.empty((_NK, 8), np.uint8)
    chars[:] = np.frombuffer(b"##e+000,", np.uint8)
    chars[k < 0, 3] = ord("-")
    chars[:, 4:7] += np.stack((e // 100, e // 10 % 10, e % 10), axis=1).astype(np.uint8)
    chars[e < 100, 4:7] = chars[e < 100, 5:8]  # two exponent digits
    chars[(form < _EXP2) | (form > _EXP3), 2] = ord(",")
    ends = np.concatenate((chars, np.where(chars == ord(","), ord("\n"), chars)))
    return np.tile(form * 34 - 2, 2), np.tile(dot, 2), ends.view("<u8")[:, 0]


@functools.cache
def _scales() -> np.ndarray:
    """Per k + _K0: s, s', hi, hi's Veltkamp halves and lo of _pow10(16 - k)."""
    return np.array([_pow10(16 + _K0 - i) for i in range(_NK - 2)]).T


def _pow10(p: int) -> tuple[float, float, float, float, float, float]:
    """10**p = (hi + lo) * s * s' to double-double precision, hi in (1/2, 2),
    s and s' powers of two; returns (s, s', hi, hi's Veltkamp halves, lo)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    q = num.bit_length() - den.bit_length()
    num, den = (num, den << q) if q >= 0 else (num << -q, den)
    hi = num / den  # int / int is correctly rounded
    hn, hd = hi.as_integer_ratio()
    lo = (num * hd - hn * den) / (den * hd)
    hh, hl = _split(hi)
    return 2.0 ** (q >> 1), 2.0 ** (q - (q >> 1)), hi, hh, hl, lo


def _split(x):
    """Veltkamp split: x = hi + lo exactly, each with at most 26 bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def g17_rows(block: np.ndarray) -> bytes:
    """`"%.17g,...,%.17g\\n" % row` for every row of an (n, m) float64 block."""
    n, m = block.shape
    x = block.ravel()
    digits, row = _digits17(x)
    row.reshape(n, m)[:, -1] += _NK  # the last value of a row ends in "\n"
    tens, last = np.divmod(digits, 10)
    high, low = np.divmod(tens, 10**8)
    groups = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    base, dot, ends = _g17_codes()

    slots = np.empty((x.size, _G17_WIDTH), np.uint8)
    slots[:, _SIGN] = ord("-")
    _column(slots, _ZEROS, "<u8")[:] = 0x3030303030  # "00000"; the second run goes on top
    # The exponent word first: the second run's last two digits go over
    # its first two slots.
    _column(slots, _LAST - 1, "<u8")[:] = np.take(ends, row)
    for i, group in enumerate(groups):
        _column(slots, _INT + 4 * i, "<u4")[:] = np.take(_quads(), group)
    _column(slots, _FRAC, "<u8")[:] = _column(slots, _INT, "<u8")
    _column(slots, _FRAC + 8, "<u8")[:] = _column(slots, _INT + 8, "<u8")
    slots[:, _INT + 16] = slots[:, _LAST] = last + 48
    slots.reshape(-1)[np.arange(0, slots.size, _G17_WIDTH) + np.take(dot, row)] = ord(".")

    key = np.take(base, row) + 2 * _significant(groups, last) + np.signbit(x)
    keep = np.take(_g17_masks(), key, axis=0)
    text = slots[keep].tobytes()
    odd = np.flatnonzero(row % _NK == _LEFT)
    if not odd.size:
        return text
    # Splice each value left to `%` in front of its separator.
    ends = np.cumsum(np.count_nonzero(keep, axis=1))[odd] - 1
    pieces, start = [], 0
    for end, v in zip(ends.tolist(), x[odd].tolist()):
        pieces += [text[start:end], _g17(v)]
        start = end
    pieces.append(text[start:])
    return b"".join(pieces)


def _column(slots: np.ndarray, col: int, dtype: str) -> np.ndarray:
    """The dtype values that start at slot col of every field."""
    return np.ndarray(len(slots), dtype, slots, col, slots.strides[:1])


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, table row) per value of x: the 17 digits as an int64 in
    [10**16, 10**17).  Zero gets row _ZERO and the digits of 1.0, a value
    left to `%` row _LEFT (and the digits of 1.0 if it is not finite)."""
    a = np.abs(x)
    finite = np.isfinite(a)
    regular = finite & (a > 0.0)
    a = np.where(regular, a, 1.0)
    row = (np.floor(np.log10(a)) + _K0).astype(np.intp)
    top, low = _times_pow10(a, row)
    # N = floor(a * 10**p) exactly: top is an integer wherever N >= 2**53.
    carry = np.floor(low)
    frac = low - carry
    digits = top.astype(np.int64) + carry.astype(np.int64)
    # An off-by-one k shows as N outside [10**16, 10**17).  Zero and the
    # non-finite values stand in as 1.0, whose N is exactly 10**16.
    left = ~finite | (np.abs(frac - 0.5) < _GUARD) | (digits < 10**16) | (digits >= 10**17)
    # Exact halves are left to `%`, so rounding half up is round-half-even.
    digits += frac > 0.5
    # 10**17 is 10**16 at exponent k + 1; this also keeps digits that are
    # left to `%` inside the digit tables.
    carry = digits >= 10**17
    digits[carry] = 10**16
    row += carry
    row = np.where(left, _LEFT, np.where(regular, row, _ZERO))
    return digits, row


def _times_pow10(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) as top + low: TwoProduct of a * s * s' and hi, plus
    a * s * s' * lo, with the _scales row of each value's k."""
    s, s2, hi, hh, hl, lo = np.take(_scales(), row, axis=1)
    a = a * s * s2
    ah, al = _split(a)
    top = a * hi
    low = ((ah * hh - top) + ah * hl + al * hh) + al * hl + a * lo
    return top, low


def _significant(groups: tuple[np.ndarray, ...], last: np.ndarray) -> np.ndarray:
    """Digits up to the last nonzero one, at least one ("0" has one)."""
    table = _group_digits()
    sig = np.maximum(
        np.maximum(np.take(table[0], groups[0]), np.take(table[1], groups[1])),
        np.maximum(np.take(table[2], groups[2]), np.take(table[3], groups[3])),
    )
    return np.where(last > 0, 17, sig)


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
    units, cents = np.divmod(n.astype(np.int64), 100)
    # Per value "0ddd" then ".dd," (" " after a y); drop the padding zeros.
    words = np.empty((v.size, 2), "<u4")
    words[:, 0] = np.take(_quads(), units)
    words[:, 1] = np.take(_cents(), cents)
    slots = words.view(np.uint8)
    slots[1::2, -1] = 32
    keep = np.ones(slots.shape, bool)
    keep[:, 0] = False
    keep[:, 1] = units >= 100
    keep[:, 2] = units >= 10
    keep[-1:, -1] = False
    return slots[keep].tobytes().decode("ascii")


def _f2_pairs_slow(v: np.ndarray) -> str:
    return " ".join(["%.2f,%.2f"] * (v.size // 2)) % tuple(v.tolist())
