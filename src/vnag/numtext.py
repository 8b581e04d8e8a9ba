"""Numbers as output bytes: the one place where vnag prints a number into a
CSV table (`csv`, printf `%.17g` per cell) or an SVG polyline (`polyline`,
`%.2f` per coordinate), byte for byte what Python's `%` prints.  Both yield
bytes chunks that `cli.Writer.write` streams to the file as they come.

Python prints each double through correctly rounded dtoa, one value at a
time.  Here a whole column is scaled by a double-double power of ten with
Dekker's exact product, which gives the integer part and the fraction of the
scaled value to about 1e-14; the rounded digits are then the integer part or
one more.  Digits, point, sign and exponent are laid out in a fixed template
row per cell, every character a cell might need in its place (a point after
every digit), and a per-shape 0/1 row clears the ones it does not use; the
cleared bytes are dropped when the chunk is joined.  A cell whose rounding
the arithmetic cannot prove is printed by `%` instead: a non-finite value, a
value outside the power table, a value next to a rounding tie (within 1e-9
of one for `%.17g`, 1e-14 for `%.2f`, in units of the last digit), and a
`%.2f` value that prints as 1000.00 or more.  Text cells must not contain NUL.
"""
from __future__ import annotations

import itertools

import numpy as np

_CHUNK = 4096  # cells per chunk: bounds the working arrays, not the output
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
# a scaled fraction this close to 1/2 is left to `%`; each margin is far above
# the error of its fraction: under 1e-14 for `%.17g` (the power table's error
# and three roundings), 1.1e-16 for `%.2f` (one rounding of an exact product,
# so pixel grids landing 1e-13 from a tie stay on the fast path)
_TIE_G, _TIE_F = 1e-9, 1e-14

# powers 10**k, k in [_K0, _K1], as double-double (hi + lo) from exact integer
# arithmetic (int / int is correctly rounded); `%.17g` scales |x| by 10**(16 - e),
# so the table serves decimal exponents e from 16 - _K1 to 16 - _K0
_K0, _K1 = -8, 56


def _power(k: int) -> tuple:
    if k >= 0:
        hi = float(10 ** k)
        return hi, float(10 ** k - int(hi))
    den = 10 ** -k
    hi = 1 / den
    num, pow2 = hi.as_integer_ratio()
    return hi, (pow2 - num * den) / (pow2 * den)


_HI, _LO = np.array([_power(k) for k in range(_K0, _K1 + 1)]).T
_C = _SPLIT * _HI
# rows: hi, hi's high and low halves (Veltkamp split), lo
_POWERS = np.array([_HI, _C - (_C - _HI), _HI - (_C - (_C - _HI)), _LO])
del _HI, _LO, _C

# each 0..9999 as four digits (uint32), as four digits each followed by a
# point (uint64), and its count of digits up to the last nonzero one (-99 for 0)
_D8 = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
_SIG4 = np.full((10, 10, 10, 10), -99, np.int8)
for _j in range(4):
    _D8[..., 2 * _j] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - _j))
    _SIG4[(slice(None),) * _j + (slice(1, None),)] = _j + 1  # the last nonzero digit wins
_DOTTED4 = _D8.reshape(10000, 8).view(np.uint64).ravel()
_DIGITS4 = np.ascontiguousarray(_D8.reshape(10000, 8)[:, ::2]).view(np.uint32).ravel()
_SIG4 = _SIG4.ravel()
del _D8, _j

# `%.17g` template, one row per cell:
#   0 '-' | 1 '0' 2 '.' 3-5 '000' (as in 0.000ddd) | 6-45 five groups of four
#   digits, each digit followed by '.', the first group padding the leading
#   digit, so digit i sits at 12 + 2i and its point at 13 + 2i |
#   46 'e' 47 sign 48-51 exponent, four digits | 52 separator
_G_WIDTH = 53
_G_TEMPLATE = np.zeros(_G_WIDTH, np.uint8)
_G_TEMPLATE[:6] = np.frombuffer(b"-0.000", np.uint8)
_G_TEMPLATE[46] = ord("e")


def _g17_keep() -> np.ndarray:
    """0/1 row per shape: fixed notation, exponent x in [-4, 16], at
    (x + 4) * 17 + nd - 1; scientific at 357 + 17 * (|x| >= 100) + nd - 1;
    391 more for a minus sign.  nd is the count of significant digits."""
    s = np.arange(391)
    sci = s >= 357
    x = np.where(sci, 0, s // 17 - 4)[:, None]
    nd = (s % 17 + 1)[:, None]
    sci, big = sci[:, None], (s >= 374)[:, None]
    pos = np.arange(_G_WIDTH)
    i = (pos - 12) // 2  # digit index at 12 + 2i, point after it at 13 + 2i
    digit = (pos >= 12) & (pos <= 45) & (pos % 2 == 0)
    point = (pos >= 13) & (pos <= 45) & (pos % 2 == 1)
    keep = (pos == _G_WIDTH - 1) | (~sci & (x < 0) & (pos >= 1) & (pos < 2 - x))
    keep |= digit & (i < np.where(sci | (x < 0), nd, np.maximum(nd, x + 1)))
    at = np.where(sci, 0, x)  # the point follows this digit, if a digit follows it
    keep |= point & (i == at) & (sci | (x >= 0)) & (nd > at + 1)
    keep |= sci & ((pos == 46) | (pos == 47) | (pos == 50) | (pos == 51) | (big & (pos == 49)))
    keep = np.concatenate([keep, keep]).astype(np.uint8)
    keep[391:, 0] = 1
    return keep


_G_KEEP = _g17_keep()

# `%.2f` template: 0 '-' | 1-4 integer part, four digits | 5 '.' |
# 6-9 cents, four digits | 10 separator; one 0/1 row per (sign, count of
# integer digits - 1)
_F_WIDTH = 11
_F_TEMPLATE = np.zeros(_F_WIDTH, np.uint8)
_F_TEMPLATE[0], _F_TEMPLATE[5] = ord("-"), ord(".")
_F_KEEP = np.array([[neg, 0, nint == 2, nint >= 1, 1, 1, 0, 0, 1, 1, 1]
                    for neg in (0, 1) for nint in range(3)], np.uint8)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple:
    """Integer part (int64) and fraction of a * 10**(k + _K0), from Dekker's
    exact product of a and the table's high part plus a * low part."""
    hi, hh, hl, lo = np.take(_POWERS, k, axis=1)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    q = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    pf = np.floor(p)
    r = (p - pf) + q
    rf = np.floor(r)
    return pf.astype(np.int64) + rf.astype(np.int64), r - rf


def _fallback(cells: np.ndarray, values: np.ndarray, where: np.ndarray, fmt: str):
    """`cells` with the cells at `where` printed by `%` over their template
    rows, widened with zero bytes on the right if a text needs it."""
    index = np.flatnonzero(where)
    texts = [(fmt % values[i]).encode() for i in index]
    extra = max([len(t) + 1 - cells.shape[1] for t in texts] + [0])
    if extra:  # `%.2f` of a large value can be any length
        cells = np.pad(cells, ((0, 0), (0, extra)))
    for i, text in zip(index, texts):
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _g17(values: np.ndarray) -> np.ndarray:
    """`%.17g` cells of a float64 vector: (n, _G_WIDTH) uint8, zero bytes
    unused, the last byte free for a separator."""
    n = len(values)
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 16.0 - np.floor(np.log10(a)) - _K0
    ok = (k >= 0) & (k <= _K1 - _K0)  # false for 0, nan and inf
    a = np.where(ok, a, 1.0)
    k = np.where(ok, k, 16 - _K0).astype(np.intp)
    whole, frac = _scaled(a, k)
    # log10 can miss the decimal exponent by one next to a power of ten
    off = (whole >= 10 ** 17).astype(np.intp) - (whole < 10 ** 16)
    if off.any():
        fix = np.flatnonzero(off)
        kf = k[fix] - off[fix]
        inside = (kf >= 0) & (kf <= _K1 - _K0)
        k[fix] = np.where(inside, kf, 16 - _K0)
        whole[fix], frac[fix] = _scaled(a[fix], k[fix])
        ok[fix] &= inside & (whole[fix] >= 10 ** 16) & (whole[fix] < 10 ** 17)
    digits = whole + (frac > 0.5)
    # no double rounds up to 10**17 (checked next to every power of ten); `%`
    # would print one that did
    fb = ~ok | (np.abs(frac - 0.5) < _TIE_G) | (digits == 10 ** 17)
    x = 16 - _K0 - k
    # 17 digits as a leading digit and four groups of four, in exact float64
    high, low = np.divmod(np.where(fb, 10 ** 16, digits), 10 ** 8)
    high, low = high.astype(float), low.astype(float)
    groups = np.empty((n, 5), np.intp)
    groups[:, 0] = lead = np.floor(high / 1e8)
    groups[:, 1] = g1 = np.floor((high - lead * 1e8) / 1e4)
    groups[:, 2] = high - lead * 1e8 - g1 * 1e4
    groups[:, 3] = g3 = np.floor(low / 1e4)
    groups[:, 4] = low - g3 * 1e4
    # count of significant digits: the last group with a nonzero digit decides
    sig = np.take(_SIG4, groups)
    nd = np.maximum(np.maximum(sig[:, 0] - 3, sig[:, 1] + 1),
                    np.maximum(np.maximum(sig[:, 2] + 5, sig[:, 3] + 9), sig[:, 4] + 13))
    sci = (x < -4) | (x > 16)
    shape = np.where(sci, 357 + 17 * (np.abs(x) >= 100), (x + 4) * 17)
    shape += nd - 1 + 391 * np.signbit(values)
    cells = np.empty((n, _G_WIDTH), np.uint8)
    cells[:] = _G_TEMPLATE
    cells[:, 6:46] = np.take(_DOTTED4, groups).view(np.uint8).reshape(n, 40)
    if sci.any():
        cells[:, 47] = np.where(x < 0, ord("-"), ord("+"))
        cells[:, 48:52] = np.take(_DIGITS4, np.abs(x)).view(np.uint8).reshape(n, 4)
    cells *= np.take(_G_KEEP, shape, axis=0)
    return _fallback(cells, values, fb, "%.17g")


def _f2(values: np.ndarray) -> np.ndarray:
    """`%.2f` cells of a float64 vector: (n, w) uint8, w >= _F_WIDTH, zero
    bytes unused, the last byte free for a separator."""
    n = len(values)
    a = np.abs(values)
    fast = a < 1000.0  # false for nan
    a = np.where(fast, a, 0.0)
    c = _SPLIT * a
    ah = c - (c - a)
    p = a * 100.0
    q = (ah * 100.0 - p) + (a - ah) * 100.0  # exact: a * 100 = p + q
    pf = np.floor(p)
    r = (p - pf) + q
    rf = np.floor(r)
    frac = r - rf
    cents = pf + rf + (frac > 0.5)
    fb = ~fast | (np.abs(frac - 0.5) < _TIE_F) | (cents >= 1e5)
    cents[fb] = 0.0
    units = np.floor(cents / 100.0)
    cells = np.empty((n, _F_WIDTH), np.uint8)
    cells[:] = _F_TEMPLATE
    cells[:, 1:5] = np.take(_DIGITS4, units.astype(np.intp)).view(np.uint8).reshape(n, 4)
    cells[:, 6:10] = np.take(_DIGITS4, (cents - 100.0 * units).astype(np.intp)
                             ).view(np.uint8).reshape(n, 4)
    shape = (units >= 10.0).astype(np.intp) + (units >= 100.0) + 3 * np.signbit(values)
    cells *= np.take(_F_KEEP, shape, axis=0)
    return _fallback(cells, values, fb, "%.2f")


def _rows(columns: list, cells, sep: bytes, end):
    """Rows of equal-length columns joined by `sep`, each ended by `end` (a
    byte value, or one per row; 0 is dropped), yielded as bytes chunks of
    about _CHUNK cells.  A float64 column is printed by `cells`; a bytes
    column (numpy 'S') is copied as it is."""
    n, ncol = len(columns[0]), len(columns)
    floats = [j for j, col in enumerate(columns) if col.dtype.kind == "f"]
    texts = [j for j in range(ncol) if j not in floats]
    seps = np.full(ncol, ord(sep), np.uint8)
    end = np.broadcast_to(end, (n,))
    step = max(1, _CHUNK // ncol)
    for i0 in range(0, n, step):
        r = min(n, i0 + step) - i0
        block = None
        if floats:
            vals = np.stack([columns[j][i0:i0 + r] for j in floats], axis=1, dtype=float)
            block = cells(vals.ravel()).reshape(r, len(floats), -1)
        if texts:
            width = max([block.shape[2] if floats else 0]
                        + [columns[j].itemsize + 1 for j in texts])
            full = np.zeros((r, ncol, width), np.uint8)
            if floats:
                full[:, floats, :block.shape[2]] = block
            for j in texts:
                col = np.ascontiguousarray(columns[j][i0:i0 + r])
                full[:, j, :col.itemsize] = col.view(np.uint8).reshape(r, -1)
            block = full
        block[:, :, -1] = seps
        block[:, -1, -1] = end[i0:i0 + r]
        yield block.tobytes().translate(None, b"\0")


def csv(header: list, columns: list):
    """A CSV table as bytes chunks: the header line, then a row per index of
    the columns.  A float64 column prints with printf `%.17g` (every double
    round-trips; `nan`, `inf`, `-0`), a bytes column (numpy 'S', from
    `g17_cells` or encoded text) as it is; any other raises ValueError."""
    if (not all(isinstance(c, np.ndarray) and c.ndim == 1
                and (c.dtype == np.float64 or c.dtype.kind == "S") for c in columns)
            or len(columns) != len(header) or len({len(c) for c in columns}) != 1):
        raise ValueError("CSV columns must be float64 or bytes arrays of one length, one per field")
    return itertools.chain([(",".join(header) + "\n").encode()],
                           _rows(columns, _g17, b",", ord("\n")))


def g17_cells(values: np.ndarray) -> np.ndarray:
    """The `%.17g` text of each value as a bytes array (numpy 'S24'): a value
    repeated down a CSV column is printed once."""
    values = np.asarray(values, dtype=float)
    return np.array(b"".join(_rows([values], _g17, b",", ord("\n"))).split(b"\n")[:-1],
                    dtype="S24")


def polyline(xs: np.ndarray, ys: np.ndarray):
    """An SVG `points` value as bytes chunks: `%.2f,%.2f` per point of the
    float64 arrays xs and ys, points joined by a space."""
    end = np.full(len(xs), ord(" "), np.uint8)
    end[-1:] = 0  # the last point's end byte is dropped with the unused ones
    return _rows([xs, ys], _f2, b",", end)
