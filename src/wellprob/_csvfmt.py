"""CSV rows as bytes, with every float64 array cell exactly as ``%.17g``.

A float64 array column is formatted in bulk, a block of rows at a time,
because CPython's ``%.17g`` leaves its floating-point fast path for
bignum arithmetic at 17 digits.  For a finite x != 0 with
k = floor(log10 |x|), the cell's digits are N = round(y), y = |x| 10^(16-k),
an integer in [10^16, 10^17).  y is computed as P + S:

* 10^p comes from a table of hi + lo doubles built exactly from Python
  integers (``_powers``), so hi + lo = 10^p to about 2^-106;
* P = fl(|x| hi), a double holding an integer, as y >= 2^53;
* S = e + fl(|x| lo), where e = |x| hi - P exactly (Dekker's two-product
  over a Veltkamp split; numpy never fuses a multiply-add).

Then |P + S - y| < 5e-15, so N = P + floor(S + 1/2) is exact whenever the
fraction of S lies more than ``_DELTA`` = 1e-6 from 1/2.  Whether y has
left [10^16, 10^17), and k must move by one, is decided outside a band of
that width; inside it both choices of k give the same cell.  What the
kernel does not decide goes through ``fmt``, the same string as
``'%.17g' % v``, one value at a time: nan, ±inf, |x| outside
[1e-280, 1e280] (subnormals included), and the ties and near-ties, which
need round-half-even on the exact value.  ±0 is laid out directly.

The first digit is laid out alone, the other sixteen as two words of
eight digit bytes (``_eight_digits``).  Each float cell is a fixed row of
``_W`` slots that holds those digits twice, once before the point and once
after it.  One row of ``_LAYOUTS`` per cell, chosen by its sign, exponent
and last nonzero digit, applies ``%g``'s layout: the exponent form when
k < -4 or k > 16, trailing zeros and a bare ``.`` dropped, at least two
exponent digits.  It holds the fixed characters and marks every slot the
cell does not use with the byte 0xFF, which never occurs in these cells.
A block's bytes are its slots without the 0xFF ones.  The kernel holds
about 90 bytes per float cell while it computes; a block then holds its
slots (56 bytes per cell) and its bytes.

``encode_rows`` takes one of two paths per block.  When every column is
a float64 array, the columns are stacked row by row and formatted in one
kernel call; otherwise every cell of every row goes through ``fmt``, value
by value, and the block holds its rows' text and its bytes.
"""

from __future__ import annotations

import functools

import numpy as np

_DELTA = 1e-6
_X_MIN, _X_MAX = 1e-280, 1e280  # the kernel's range of |x|
_P_LO, _P_HI = -270, 298  # table of 10^p; covers 16 - k for |x| in that range
_DROP = b"\xff"

# Slots of one float cell.  Digits 1-16 fill the 8-byte words 1-2 (before
# the point) and 4-5 (after it); slots 0-4, 24-26 and 53-54 are never kept.
_W = 56
_SIGN, _ZERO, _INT = 5, 6, 7  # '-', the '0' of 0.ddd; digit m at _INT + m
_POINT, _LEAD, _FRAC = 27, 28, 31  # '.', up to three '0's; digit m at _FRAC + m
_E, _SEP = 48, 55  # 'e', then sign, hundreds, tens, units; the separator

# A cell's kind, from its decimal exponent k: k itself for 0 <= k <= 16
# (k + 1 digits before the point), _LEAD0 - 1 - k for -4 <= k <= -1 (0.ddd
# with -1 - k zeros after the point), _EXP2 or _EXP3 in the exponent form
# with two or three exponent digits, _ZERO_CELL for +-0.
_LEAD0, _EXP2, _EXP3, _ZERO_CELL = 17, 21, 22, 23
_K0 = 301  # _KINDS and _EXPONENTS are indexed by k + _K0, 0 for a zero


def _kind(k: int) -> int:
    if 0 <= k <= 16:
        return k
    if -4 <= k < 0:
        return _LEAD0 - 1 - k
    return _EXP3 if abs(k) >= 100 else _EXP2


_KINDS = np.array([_ZERO_CELL] + [_kind(k) for k in range(1 - _K0, _K0)])
_EXPONENTS = np.frombuffer(b"".join(b"%+04d" % k for k in range(-_K0, _K0)),
                           np.uint8).reshape(-1, 4)  # sign, hundreds, tens, units
_ASCII = np.uint64(0x3030303030303030)


def _layouts() -> np.ndarray:
    """The slots of a cell by its code, (17 kind + last) * 2 + sign, where
    ``last`` is its last nonzero digit: a fixed character, 0 where the
    cell's digits or exponent go, or 0xFF where the cell has nothing."""
    code = np.arange((_ZERO_CELL + 1) * 34)[:, None]
    kind, last, sign = code // 34, code // 2 % 17, code % 2
    lead = (kind >= _LEAD0) & (kind < _EXP2)
    expo, digits = (kind == _EXP2) | (kind == _EXP3), kind != _ZERO_CELL
    whole = np.where(kind <= 16, kind, np.where(expo, 0, -1))  # last digit before the point
    slot = np.arange(_W)
    m = slot - np.where(slot < _FRAC, _INT, _FRAC)  # the digit of a digit slot
    table = np.full((len(code), _W), _DROP[0], np.uint8)
    for char, rule in [
        (ord("-"), (slot == _SIGN) & (sign == 1)),
        (ord("0"), (slot == _ZERO) & (lead | ~digits)),
        (0, (slot >= _INT) & (slot < _INT + 17) & (m <= whole)),
        (ord("."), (slot == _POINT) & (last > whole) & digits),
        (ord("0"), (slot >= _LEAD) & (slot - _LEAD < kind - _LEAD0) & lead),
        (0, (slot >= _FRAC) & (slot < _FRAC + 17) & (m > whole) & (m <= last) & digits),
        (ord("e"), (slot == _E) & expo),
        (0, (slot > _E) & (slot < _E + 5) & expo & ((slot != _E + 2) | (kind == _EXP3))),
        (ord(","), slot == _SEP),
    ]:
        table[np.broadcast_to(rule, table.shape)] = char
    return table


_LAYOUTS = _layouts()  # 816 x 56 bytes, built at import in about 1 ms


def fmt(value) -> str:
    """One cell on its own: a bool as true/false, a float with 17
    significant digits (the string of ``'%.17g' % value``), else str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _split(a):
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers():
    """(hi, hi's split halves, lo) of 10^p for p in [_P_LO, _P_HI]:
    hi = 10^p rounded, lo = 10^p - hi rounded, both from exact integers
    (a true division of Python ints is correctly rounded)."""
    hi, lo = [], []
    for p in range(_P_LO, _P_HI + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _scaled(ax, k):
    """|x| 10^(16-k) as P + S: to within 5e-15 below 1.1e17, 1e-13 below 1e18."""
    i = 16 - _P_LO - k
    hi, hh, hl, lo = _powers()
    p = np.take(hi, i, mode="clip")
    p *= ax
    ah, al = _split(ax)
    s = np.take(hh, i, mode="clip")
    s *= ah
    s -= p
    t = np.empty_like(s)
    for table, part in ((hl, ah), (hh, al), (hl, al), (lo, ax)):  # Dekker's order, then lo
        np.take(table, i, out=t, mode="clip")  # i is in range; "raise" would copy out
        t *= part
        s += t
    return p, s


def _round(x):
    """(N, k, fast): the 17-digit integers and decimal exponents of the
    values ``x``, valid where ``fast`` (finite, nonzero, in range, no tie)."""
    ax = np.abs(x)
    fast = (ax >= _X_MIN) & (ax <= _X_MAX)
    ax[~fast] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    p, s = _scaled(ax, k)
    low, high = (p - 1e16) + s < -_DELTA, (p - 1e17) + s >= _DELTA
    moved = low | high
    if moved.any():
        k += high.astype(np.int64) - low
        p[moved], s[moved] = _scaled(ax[moved], k[moved])
    fast &= np.abs(s - np.rint(s)) < 0.5 - _DELTA
    n = p.astype(np.int64) + np.floor(s + 0.5).astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    fast &= (n >= 10 ** 16) & (n < 10 ** 17)
    return n, k, fast


def _eight_digits(v):
    """Each v < 10^8 (uint64, overwritten) as eight digits, one per byte of
    the value, the first in the lowest byte."""
    hi = v * 109951163  # v // 10^4 = (v * ceil(2^40 / 10^4)) >> 40 for v < 10^8
    hi >>= 40
    v -= hi * 10000
    v <<= 32
    v |= hi  # two lanes of 32 bits: the first four digits, the last four
    for mul, shift, mask, div, width in ((10486, 20, 0x0000007F0000007F, 100, 16),
                                         (103, 10, 0x000F000F000F000F, 10, 8)):
        t = v * mul  # per lane: (v * mul) >> shift = v // div
        t >>= shift
        t &= mask
        v -= t * div
        v <<= width
        v |= t
    return v


def _float_cells(x) -> bytearray:
    """The cells of the float64 values ``x`` (1-d), _W slot bytes each and
    each ending in a ',' separator."""
    n, k, fast = _round(x)
    first = n // 10 ** 16
    n -= first * 10 ** 16
    first = first.astype(np.uint8) + ord("0")
    high = n // 10 ** 8
    words = _eight_digits(np.stack((high, n - high * 10 ** 8), axis=-1).astype(np.uint64))
    del n, high
    # bytes up to the top nonzero one: d1-d8 in the first word, d9-d16 in the second
    count = (np.frexp(words.astype(np.float64))[1] + 7) >> 3
    last = np.where(count[:, 1] > 0, count[:, 1] + 8, count[:, 0])
    del count
    k += _K0
    k[x == 0] = 0
    kind = np.take(_KINDS, k)
    code = (kind * 17 + last) * 2 + np.signbit(x)
    expo = np.flatnonzero((kind == _EXP2) | (kind == _EXP3))
    k = k[expo]
    del kind, last  # before the block's slots: the writer's memory peak is here

    block = bytearray(x.size * _W)
    cells = np.frombuffer(block, np.uint8).reshape(x.size, _W)
    np.take(_LAYOUTS, code, axis=0, out=cells, mode="clip")
    cells[:, _INT] |= first
    cells[:, _FRAC] |= first
    words += _ASCII
    cell_words = cells.view("<u8")
    for w in (_INT + 1, _FRAC + 1):
        cell_words[:, w // 8] |= words[:, 0]
        cell_words[:, w // 8 + 1] |= words[:, 1]
    if expo.size:
        cells[expo, _E + 1:_E + 5] |= np.take(_EXPONENTS, k, axis=0)
    if not fast.all():
        for i in np.flatnonzero(~fast & (x != 0)):
            cell = fmt(float(x[i])).encode()
            cells[i, :-1] = _DROP[0]
            cells[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return block


def encode_rows(columns) -> bytes:
    """The CSV lines (LF-terminated, comma-separated) of equal-length
    ``columns``.  A float64 array column's cells are those of
    ``'%.17g' % v``; any other column's are ``fmt(v)``."""
    if not all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns):
        return "".join(",".join(map(fmt, row)) + "\n" for row in zip(*columns)).encode()
    block = _float_cells(np.stack(columns, axis=1).ravel())
    chars = np.frombuffer(block, np.uint8).reshape(len(columns[0]), -1)
    chars[:, -1] = ord("\n")
    return block.translate(None, _DROP)
