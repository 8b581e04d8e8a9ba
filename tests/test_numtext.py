"""`numtext` prints what Python's `%` prints, byte for byte: `%.17g` through
`csv` and `g17_cells`, `%.2f` through `polyline`, on the fast path and on the
per-cell `%` fallback alike."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnag import numtext
from vnag.numtext import _CHUNK, _K0, _K1, csv, g17_cells, polyline


def _csv_text(columns):
    """The rows of `csv` over columns, without its header line."""
    head, _, rows = b"".join(csv(["c"] * len(columns), columns)).decode().partition("\n")
    assert head == ",".join(["c"] * len(columns))
    return rows


def _points(xs, ys):
    return b"".join(polyline(xs, ys)).decode()


def _assert_g17(values):
    values = np.asarray(values, dtype=float)
    want = [f"{v:.17g}" for v in values.tolist()]
    assert _csv_text([values]).split("\n")[:-1] == want
    assert [c.decode() for c in g17_cells(values)] == want


def _assert_f2(values):
    xs = np.asarray(values, dtype=float)
    ys = xs[::-1].copy()
    want = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
    assert _points(xs, ys) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats() | st.floats(width=32), min_size=1, max_size=40))
def test_any_float_matches_printf(values):
    _assert_g17(values)
    _assert_f2(values)


def test_powers_of_ten_and_their_neighbours():
    powers = [float(f"1e{k}") for k in range(-30, 31)]
    near = [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    values = powers + near + [-v for v in powers + near]
    _assert_g17(values)
    _assert_f2(values)


def test_digit_count_boundaries():
    # 1e16 and 1e17 bound the 17-digit integers; 9.9999999999999995e-5 sits on
    # the switch from fixed to scientific notation
    edges = [1e16, 1e17, 9.9999999999999995e-5, 1e-4, 1e-5, 123456789012345678.0]
    _assert_g17([math.nextafter(e, d) for e in edges for d in (0.0, math.inf)] + edges)


def test_f2_ties_and_signed_zero():
    _assert_f2([0.125, 2.675, 1.005, -0.005, 0.005, -0.0, 0.0, -0.001, 0.375, -999.125])
    # the doubles nearest d.dd5 lie within about 1e-13 of a tie, on either side
    _assert_f2([float(f"{i / 1000:.3f}") for i in range(-999995, 1000000, 1370)])


def test_past_each_fast_path():
    # outside the power table (both ends), zero, non-finite; `%.2f` at and past 1000
    table_ends = [10.0 ** (16 - _K1), 10.0 ** (16 - _K0)]
    outside = [10.0 ** (16 - _K1 - 2), 10.0 ** (16 - _K0 + 2), 5e-324, 1.7976931348623157e308]
    _assert_g17(table_ends + outside + [0.0, -0.0, math.nan, math.inf, -math.inf])
    _assert_f2([999.994999, 999.995, 999.9949999999999, 1000.0, 1e300, -1e300,
                math.nan, math.inf, -math.inf, 123456.789])


def test_chunk_seams_with_fallback_cells():
    rng = np.random.default_rng(3)
    n = 3 * _CHUNK + 5
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
    # fallback cells on both sides of the seams of one- and two-column chunks
    for i in (_CHUNK // 2 - 1, _CHUNK // 2, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, n - 1):
        values[i] = (math.nan, 0.0, 0.125, 1e300)[i % 4]
    _assert_g17(values)
    _assert_f2(values)
    two = _csv_text([values, values[::-1].copy()]).split("\n")[:-1]
    assert two == [f"{a:.17g},{b:.17g}" for a, b in zip(values.tolist(), values[::-1].tolist())]


def test_bytes_columns_and_polyline_cuts():
    vals = np.array([0.5, -2.0, math.nan])
    text = np.array([b"ok", b"", b"50%"])
    assert _csv_text([text, vals, g17_cells(vals)]) == "ok,0.5,0.5\n,-2,-2\n50%,nan,nan\n"
    assert _csv_text([np.array([], dtype=float)]) == ""
    # one polyline per series, as line_chart cuts them, an empty one included
    xs = np.arange(5, dtype=float)
    assert [_points(xs[a:b], -xs[a:b]) for a, b in ((0, 2), (2, 2), (2, 5))] == [
        "0.00,-0.00 1.00,-1.00", "", "2.00,-2.00 3.00,-3.00 4.00,-4.00"]
    assert list(polyline(xs[:0], xs[:0])) == []


@pytest.mark.parametrize("column", [
    np.arange(3),  # int64: its bytes are not text
    np.arange(3, dtype=np.float32), np.array(["a", "b", "c"]), [0.5, 1.0, 2.0],
    np.zeros((3, 1)), np.array([b"a", 1.0, None], dtype=object)],
    ids=["int64", "float32", "unicode", "list", "2d", "object"])
def test_csv_rejects_non_float_non_bytes_columns(column):
    with pytest.raises(ValueError):
        csv(["a", "b"], [np.zeros(3), column])


def test_power_table_is_exact():
    # hi + lo is the double-double nearest 10**k: hi is the nearest double, and
    # lo the nearest double to the remainder
    from fractions import Fraction
    hi, hh, hl, lo = numtext._POWERS
    assert np.array_equal(hh + hl, hi)
    for j, k in enumerate(range(_K0, _K1 + 1)):
        exact = Fraction(10) ** k
        assert hi[j] == float(exact)
        assert lo[j] == float(exact - Fraction(hi[j]))


def _mixed_table(n):
    """One float64 column between three bytes columns, fallback cells at the
    chunk seams."""
    rng = np.random.default_rng(5)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
    for i in (_CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, n - 1):
        values[i] = (math.nan, -0.0, math.inf, 0.0, 1e300)[i % 5]
    labels = np.array([b"a", b"bb", b"", b"label"])[np.arange(n) % 4]
    return [labels, values, g17_cells(values[::-1].copy()), np.full(n, b"x" * 7)], values


def test_float_and_bytes_slots_across_chunks():
    columns, values = _mixed_table(2 * _CHUNK + 7)
    labels, _, reverse, tags = columns
    want = "".join(f"{a.decode()},{v:.17g},{w:.17g},{t.decode()}\n" for a, v, w, t in
                   zip(labels, values.tolist(), values[::-1].tolist(), tags))
    assert _csv_text(columns) == want
    assert [c.decode() for c in reverse] == [f"{w:.17g}" for w in values[::-1].tolist()]


def test_bytes_column_wider_than_a_float_cell():
    wide = np.array([b"w" * 60, b"", b"y" * 59 + b"z"], dtype="S60")
    vals = np.array([1.5, -1e-300, math.nan])
    want = "".join(f"{w.decode()},{v:.17g},{w.decode()}\n" for w, v in zip(wide, vals.tolist()))
    assert _csv_text([wide, vals, wide]) == want


def test_f2_every_integer_part():
    units = np.arange(1000, dtype=float)
    values = np.concatenate([units, units + 0.99, -units, -units - 0.99,
                             [-0.0, -0.001, 999.995, 999.99, -999.99]])
    _assert_f2(values)


def test_chunk_bytes_bounded():
    columns, _ = _mixed_table(3 * _CHUNK)
    chunks = list(csv(["a", "b", "c", "d"], columns))[1:]
    rows = _CHUNK  # one float column
    width = 25 + sum(c.itemsize + 1 for c in columns if c.dtype.kind == "S")
    assert len(chunks) == 3
    assert all(c.count(b"\n") <= rows and len(c) <= rows * width for c in chunks)
    # two float columns: half the rows a chunk
    two = list(csv(["a", "b"], [columns[1], columns[1]]))[1:]
    assert max(c.count(b"\n") for c in two) == _CHUNK // 2
    assert all(len(c) <= _CHUNK // 2 * 50 for c in two)
