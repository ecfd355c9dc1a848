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

Then |P + S - y| < 5e-15, so N = P + round(S) is exact whenever the
fraction of S lies more than ``_DELTA`` = 1e-6 from 1/2.  Whether y has
left [10^16, 10^17), and k must move by one, is decided outside a band of
that width; inside it both choices of k give the same cell.  What the
kernel does not decide goes through ``fmt``, the same string as
``'%.17g' % v``, one value at a time: nan, ±inf, |x| outside
[1e-280, 1e280] (subnormals included), and the ties and near-ties, which
need round-half-even on the exact value.  ±0 is laid out directly.

The first digit is laid out alone, the other sixteen as two words of
eight digit bytes, each from two table lookups of four digits.  A float
cell is a fixed row of ``_W`` = 32 slots: the sign, the ``0.`` and up to
three lead zeros of 0.000ddd, the first digit, seventeen slots for digits
1-16 and the point, the exponent and the separator.  The two words go in
twice, unshifted for the digits before the point and shifted one byte
for those after it, each copy under a mask of the cell's code (exponent,
last nonzero digit, sign).  The code's layout applies ``%g``'s rules: the
exponent form when k < -4 or k > 16, trailing zeros and a bare ``.``
dropped, at least two exponent digits.  It holds the fixed characters and
marks every slot the cell does not use with the byte 0xFF, which never
occurs in these cells; a block's bytes are its slots without the 0xFF
ones.  The tables are built on first use.  At its peak a block holds
about 115 bytes per float cell, its 32 slots and its bytes among them.

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

# Slots of one float cell; slots 6 and 30 are never kept.
_W = 32
_SIGN, _ZERO, _LEAD = 0, 1, 3  # '-'; the '0' and '.' of 0.ddd; up to three '0's
_D0 = 7  # digit 0; digit m >= 1 at _D0 + m before the point, at _D0 + 1 + m after it
_E, _SEP = 25, 31  # 'e', then sign, hundreds, tens, units; the separator

# A cell's kind, from its decimal exponent k: k itself for 0 <= k <= 16
# (k + 1 digits before the point), _LEAD0 - 1 - k for -4 <= k <= -1 (0.ddd
# with -1 - k zeros after the point), _EXP2 or _EXP3 in the exponent form
# with two or three exponent digits, _ZERO_CELL for +-0.
_LEAD0, _EXP2, _EXP3, _ZERO_CELL = 17, 21, 22, 23
_K0 = 301  # the base and exponent tables are indexed by k + _K0, 0 for a zero


@functools.cache
def _tables():
    """The kernel's lookup tables, built on first use.

    Indexed by k + _K0: a cell's ``base``, 34 times its kind, and its
    exponent's sign and digits at their slots in the cell's fourth word.
    Indexed by a group g of four digits: their bytes, the first lowest, and
    for each group j = 0-3 of digits 1-16, 2 (4j + i) with i the place (1-4)
    of g's last nonzero digit, 0 for g = 0.  Indexed by the code, base +
    2 last + sign: the layouts, and the masks of words 1-2 that keep the
    digits before the point (unshifted) and after it (shifted).  Each layout
    slot is a fixed character, 0 where digits or the exponent go, or 0xFF
    where the cell has nothing."""
    k = np.arange(2 * _K0) - _K0
    kinds = np.where((k >= 0) & (k <= 16), k, np.where(
        (k >= -4) & (k < 0), _LEAD0 - 1 - k, np.where(abs(k) >= 100, _EXP3, _EXP2)))
    kinds[0] = _ZERO_CELL
    exponents = np.stack([np.where(k < 0, ord("-"), ord("+"))]
                         + [abs(k) // d % 10 + ord("0") for d in (100, 10, 1)], 1)
    exponents = np.pad(exponents.astype(np.uint8), ((0, 0), (_E + 1 - 24, _W - _E - 5)))
    mesh = np.ix_(*[np.arange(10)] * 4)  # the digits of g = 0..9999, first digit first
    quad = sum((v + ord("0")) << 8 * i for i, v in enumerate(mesh)).ravel().astype(np.uint64)
    place = functools.reduce(np.maximum, [(v > 0) * (i + 1) for i, v in enumerate(mesh)]).ravel()
    lasts = np.where(place > 0, 2 * place + 8 * np.arange(4)[:, None], 0).astype(np.int8)

    code = np.arange((_ZERO_CELL + 1) * 34)[:, None]
    kind, last, sign = code // 34, code // 2 % 17, code % 2
    lead = (kind >= _LEAD0) & (kind < _EXP2)
    expo, digits = (kind == _EXP2) | (kind == _EXP3), kind != _ZERO_CELL
    whole = np.where(kind <= 16, kind, np.where(expo, 0, -1))  # last digit before the point
    slot = np.arange(_W)
    m = slot - _D0  # the digit of an unshifted slot; m - 1 that of a shifted one
    before = (m >= 1) & (m <= np.where(lead, last, whole))
    after = (m - 1 > whole) & (m - 1 <= last) & (whole >= 0) & digits
    layouts = np.full((len(code), _W), _DROP[0], np.uint8)
    for char, rule in [
        (ord("-"), (slot == _SIGN) & (sign == 1)),
        (ord("0"), (slot == _ZERO) & (lead | ~digits)),
        (ord("."), (slot == _ZERO + 1) & lead),
        (ord("0"), (slot >= _LEAD) & (slot - _LEAD < kind - _LEAD0) & lead),
        (0, ((m == 0) & digits) | before | after),
        (ord("."), (m - 1 == whole) & (last > whole) & (whole >= 0) & digits),
        (ord("e"), (slot == _E) & expo),
        (0, (slot > _E) & (slot < _E + 5) & expo & ((slot != _E + 2) | (kind == _EXP3))),
        (ord(","), slot == _SEP),
    ]:
        layouts[np.broadcast_to(rule, layouts.shape)] = char
    masks = np.stack(np.broadcast_arrays(before, after)).astype(np.uint8) * 0xFF
    masks = masks.view("<u8")[:, :, 1:3].transpose(0, 2, 1).reshape(4, -1).copy()
    return kinds * 34, exponents.view("<u8").ravel(), quad, lasts, layouts, masks


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
    p, hh, hl, lo = (table.take(i) for table in _powers())
    p *= ax
    ah, al = _split(ax)
    s = hh * ah
    s -= p
    for table, part in ((hl, ah), (hh, al), (hl, al), (lo, ax)):  # Dekker's order, then lo
        s += table * part
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
    r = np.rint(s)  # a tie, where it rounds to even, is not fast
    fast &= np.abs(s - r) < 0.5 - _DELTA
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    fast &= (n >= 10 ** 16) & (n < 10 ** 17)
    return n, k, fast


def _float_cells(x) -> bytearray:
    """The cells of the float64 values ``x`` (1-d), _W slot bytes each and
    each ending in a ',' separator."""
    bases, exponents, quads, lasts, layouts, masks = _tables()
    n, k, fast = _round(x)
    high = n // 10 ** 8  # d0-d8
    n -= high * 10 ** 8  # d9-d16
    first = high // 10 ** 8
    high -= first * 10 ** 8
    first = first.astype(np.uint8) + ord("0")
    words, last = [], 0
    for v, j in ((high, 0), (n, 2)):  # a word of eight digit bytes from two groups of four
        g = v // 10 ** 4
        v -= g * 10 ** 4
        w = quads.take(v)
        w <<= 32
        w |= quads.take(g)
        words.append(w)
        last = np.maximum(last, np.maximum(lasts[j].take(g), lasts[j + 1].take(v)))
    del n, high, g, v
    k += _K0
    k[x == 0] = 0
    code = bases.take(k)
    code += last
    code += np.signbit(x)
    del last  # before the block's slots: the writer's memory peak is here

    block = bytearray(x.size * _W)
    cells = np.frombuffer(block, np.uint8).reshape(x.size, _W)
    layouts.take(code, axis=0, out=cells, mode="clip")
    cells[:, _D0] |= first
    (w0, w1), (b0, b1, a0, a1) = words, (mask.take(code) for mask in masks)
    cell_words = cells.view("<u8")
    b0 &= w0
    a0 &= w0 << 8
    b0 |= a0
    cell_words[:, 1] |= b0
    b1 &= w1
    w0 >>= 56
    w0 |= w1 << 8
    a1 &= w0
    b1 |= a1
    cell_words[:, 2] |= b1
    w1 >>= 56  # digit 16, at slot 24 if it follows the point, else on a 0xFF slot
    w1 |= exponents.take(k)  # on 0xFF slots but in the exponent form
    cell_words[:, 3] |= w1
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
