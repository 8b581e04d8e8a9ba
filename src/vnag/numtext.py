"""Numbers as output bytes: the one place where vnag prints a number into a
CSV table (`csv`, printf `%.17g` per cell) or an SVG polyline (`polyline`,
`%.2f` per coordinate), byte for byte what Python's `%` prints.  Both yield
bytes chunks that `cli._write` streams to the file as they come.

Python prints each double through correctly rounded dtoa, one value at a
time.  Here a whole column is scaled by a double-double power of ten with
Dekker's exact product, which gives the integer part and the fraction of the
scaled value to about 1e-14; the rounded digits are then the integer part or
one more.  A `%.17g` cell lays out digits, point, sign and exponent in a
fixed template row, every character it might need in its place (a point after
every digit), and a per-shape 0/1 row clears the ones it does not use.  A
`%.2f` cell is two table words: sign and integer part, point and cents.  Each
column has a slot of its own width in the row, and the zero bytes a cell
leaves are dropped when the chunk is joined.  A cell whose rounding the
arithmetic cannot prove is printed by `%` instead: a non-finite value, a
value outside the power table, a value next to a rounding tie (within 1e-9
of one for `%.17g`, 1e-14 for `%.2f`, in units of the last digit), and a
`%.2f` value that prints as 1000.00 or more.  Text cells must not contain NUL.
"""
from __future__ import annotations

import itertools

import numpy as np

# numbers printed per chunk: a table with f float columns yields max(1, _CHUNK // f)
# rows a chunk (_CHUNK rows with none), each row at most 25 bytes per `%.17g` cell
# and itemsize + 1 per bytes cell (_G_WIDTH and itemsize + 1 in the working arrays)
_CHUNK = 4096
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
#   0 '-' | 1 '0' 2 '.' 3-5 '000' (as in 0.000ddd) | 6-39 the leading digit
#   and four groups of four digits, each digit followed by '.', so digit i
#   sits at 6 + 2i and its point at 7 + 2i |
#   40 'e' 41 sign 42-45 exponent, four digits | 46 separator
_G_WIDTH = 47
_G_TEMPLATE = np.zeros(_G_WIDTH, np.uint8)
_G_TEMPLATE[:8] = np.frombuffer(b"-0.000\0.", np.uint8)
_G_TEMPLATE[40] = ord("e")


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
    i = (pos - 6) // 2  # digit index at 6 + 2i, point after it at 7 + 2i
    digit = (pos >= 6) & (pos <= 39) & (pos % 2 == 0)
    point = (pos >= 7) & (pos <= 39) & (pos % 2 == 1)
    keep = (pos == _G_WIDTH - 1) | (~sci & (x < 0) & (pos >= 1) & (pos < 2 - x))
    keep |= digit & (i < np.where(sci | (x < 0), nd, np.maximum(nd, x + 1)))
    at = np.where(sci, 0, x)  # the point follows this digit, if a digit follows it
    keep |= point & (i == at) & (sci | (x >= 0)) & (nd > at + 1)
    keep |= sci & ((pos == 40) | (pos == 41) | (pos == 44) | (pos == 45) | (big & (pos == 43)))
    keep = np.concatenate([keep, keep]).astype(np.uint8)
    keep[391:, 0] = 1
    return keep


_G_KEEP = _g17_keep()

# `%.2f` cell: two little-endian uint32 words, zero bytes unused, from two
# tables: the sign and integer part ("-" for index 1000 + u), then the point
# and cents with the last byte free for the separator
_u = np.arange(1000)
_INT = _DIGITS4.view("<u4")[:1000] >> 8 * (3 - (_u >= 10) - (_u >= 100))  # drop leading '0's
_SIGNED = np.concatenate([_INT, _INT << 8 | ord("-")]).astype("<u4")
_CENTS = (_DIGITS4.view("<u4")[:100] >> 16 << 8 | ord(".")).astype("<u4")
del _u, _INT


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
    lead = np.floor(high / 1e8)
    groups = np.empty((n, 4), np.intp)
    groups[:, 0] = g1 = np.floor((high - lead * 1e8) / 1e4)
    groups[:, 1] = high - lead * 1e8 - g1 * 1e4
    groups[:, 2] = g3 = np.floor(low / 1e4)
    groups[:, 3] = low - g3 * 1e4
    # count of significant digits: the last group with a nonzero digit decides
    # (the leading digit is never 0)
    sig = np.take(_SIG4, groups)
    nd = np.maximum(np.maximum(sig[:, 0] + 1, sig[:, 1] + 5),
                    np.maximum(np.maximum(sig[:, 2] + 9, sig[:, 3] + 13), 1))
    sci = (x < -4) | (x > 16)
    shape = np.where(sci, 357 + 17 * (np.abs(x) >= 100), (x + 4) * 17)
    shape += nd - 1 + 391 * np.signbit(values)
    cells = np.empty((n, _G_WIDTH), np.uint8)
    cells[:] = _G_TEMPLATE
    cells[:, 6] = lead + ord("0")
    cells[:, 8:40] = np.take(_DOTTED4, groups).view(np.uint8).reshape(n, 32)
    if sci.any():
        cells[:, 41] = np.where(x < 0, ord("-"), ord("+"))
        cells[:, 42:46] = np.take(_DIGITS4, np.abs(x)).view(np.uint8).reshape(n, 4)
    cells *= np.take(_G_KEEP, shape, axis=0)
    return _fallback(cells, values, fb, "%.17g")


def _f2(values: np.ndarray) -> np.ndarray:
    """`%.2f` cells of a float64 vector: (n, w) uint8, w >= 8 (wider only
    where a fallback text needs it), zero bytes unused, the last byte free for
    a separator."""
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
    words = np.empty((len(values), 2), "<u4")
    words[:, 0] = np.take(_SIGNED, units.astype(np.intp) + 1000 * np.signbit(values))
    words[:, 1] = np.take(_CENTS, (cents - 100.0 * units).astype(np.intp))
    return _fallback(words.view(np.uint8), values, fb, "%.2f")


def _rows(columns: list, cells, sep: bytes, end):
    """Rows of equal-length columns joined by `sep`, each ended by `end` (a
    byte value, or one per row; 0 is dropped), yielded as bytes chunks of
    about _CHUNK printed numbers.  A float64 column is printed by `cells`; a
    bytes column (numpy 'S') is copied as it is.  Each column has its own
    slot in the row: a cell, or the column's itemsize, then its separator."""
    n = len(columns[0])
    floats = [j for j, col in enumerate(columns) if col.dtype.kind == "f"]
    end = np.broadcast_to(end, (n,))
    step = max(1, _CHUNK // len(floats)) if floats else _CHUNK
    for i0 in range(0, n, step):
        # a call per chunk: its arrays are freed before the next chunk prints
        yield _chunk([col[i0:i0 + step] for col in columns], floats, cells, ord(sep),
                     end[i0:i0 + step])


def _chunk(part: list, floats: list, cells, sep: int, end: np.ndarray) -> bytes:
    """One chunk of `_rows`, the columns cut to its rows."""
    r = len(part[0])
    if floats:
        vals = np.stack([part[j] for j in floats], axis=1, dtype=float)
        block = cells(vals.ravel()).reshape(r, len(floats), -1)
    if len(floats) == len(part):
        block[:, :, -1] = sep
        row = block.reshape(r, -1)
    else:
        widths = [block.shape[2] if j in floats else col.itemsize + 1
                  for j, col in enumerate(part)]
        stops = np.cumsum(widths)
        row = np.empty((r, stops[-1]), np.uint8)
        for j, (col, stop, width) in enumerate(zip(part, stops, widths)):
            if j in floats:
                row[:, stop - width:stop] = block[:, floats.index(j)]
            else:
                text = np.ascontiguousarray(col).view(np.uint8).reshape(r, -1)
                row[:, stop - width:stop - 1] = text
        row[:, stops - 1] = sep
    row[:, -1] = end
    return row.tobytes().translate(None, b"\0")


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
    """The `%.17g` text of each value as a bytes array (numpy 'S', as wide as
    its longest text): a value repeated down a CSV column is printed once."""
    values = np.asarray(values, dtype=float)
    return np.array(b"".join(_rows([values], _g17, b",", ord("\n"))).split(b"\n")[:-1],
                    dtype="S")


def polyline(xs: np.ndarray, ys: np.ndarray):
    """An SVG `points` value as bytes chunks: `%.2f,%.2f` per point of the
    float64 arrays xs and ys, points joined by a space."""
    end = np.full(len(xs), ord(" "), np.uint8)
    end[-1:] = 0  # the last point's end byte is dropped with the unused ones
    return _rows([xs, ys], _f2, b",", end)
