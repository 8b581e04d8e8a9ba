"""The CSV and SVG number formats, pinned against per-value formatters.

`numtext.csv` (the CSV bytes that `cli` streams to a file) and
`svgchart.line_chart` render whole tables and polylines through `numtext`,
which prints the same formats with float64 arithmetic and leaves to printf,
one cell at a time, each value whose rounding it cannot prove.  The
reference formatters here do it one value at a time, the way the files were
first written: CSV numbers as `f"{v:.17g}"` (other cells as `str(v)`), SVG
coordinates as `f"{px:.2f},{py:.2f}"` from scalar pixel arithmetic.  The
outputs must be equal as strings, so a file written by one version reads the
same in the next.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnag.dynamics import Trajectory
from vnag.experiments import trajectory_table
from vnag.numtext import csv, g17_cells
from vnag.svgchart import _ticks, line_chart

_EXTREMES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e22, 123456789.0]


def _text(chunks):
    return b"".join(chunks).decode()


def _csv_text(header, columns):
    return _text(csv(header, columns))


def _cells(items):
    """A text column: each item's `str`, as bytes."""
    return np.array([str(c).encode() for c in items], dtype="S")


def _ref_csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _ref_to_csv(traj):
    d = traj.dim
    lines = [",".join(["t"] + [f"x_{i}" for i in range(d)] + [f"v_{i}" for i in range(d)])]
    for k in range(len(traj.t)):
        lines.append(",".join(f"{val:.17g}" for val in [traj.t[k], *traj.x[k], *traj.v[k]]))
    return "\n".join(lines) + "\n"


def _ref_chart_coords(series, markers, width=720, height=440):
    """Polyline `points` strings and marker (cx, cy) of line_chart's defaults."""
    pad_l, pad_r, pad_t, pad_b = 62, 16, 34, 46
    xs_all = [x for _, xs, _ in series for x in xs] + [m[0] for m in markers]
    ys_all = [y for _, _, ys in series for y in ys] + [m[1] for m in markers]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b

    def px(x):
        return pad_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return pad_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    points = [" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
              for _, xs, ys in series]
    circles = [(f"{px(m[0]):.2f}", f"{py(m[1]):.2f}") for m in markers]
    return points, circles


def _chart_coords(svg):
    return (re.findall(r'<polyline points="([^"]*)"', svg),
            re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg))


def test_csv_extreme_values():
    vals = np.array(_EXTREMES)
    rows = [(i, "curve", v, w) for i, (v, w) in enumerate(zip(vals, vals[::-1]))]
    header = ["index", "curve", "a", "b"]
    cols = [_cells(range(len(vals))), np.full(len(vals), b"curve"), vals, vals[::-1].copy()]
    assert _csv_text(header, cols) == _ref_csv(rows, header)


def test_csv_cell_types():
    # float64 columns print with `%.17g`; bytes columns, from g17_cells, from
    # encoded integers and text or repeated by np.full, print as they are (a
    # `%` in a text cell comes out as itself)
    vals = np.array([0.5, -0.0, 5e-324, math.nan])
    ints = np.array([3, -7, 0, 2 ** 40])
    const = np.float64(1.0) / 3.0
    rows = [(float(const), str(int(k)), "50%", float(v), "ok" if k > 0 else "no")
            for v, k in zip(vals, ints)]
    header = ["c", "k", "label", "v", "flag"]
    cols = [np.full(4, g17_cells([const])[0]), np.array(ints, dtype="S"),
            np.full(4, b"50%"), vals, _cells("ok" if k > 0 else "no" for k in ints)]
    assert _csv_text(header, cols) == _ref_csv(rows, header)


def test_csv_empty_table():
    header = ["t1", "t2", "verdict", "binding_eigenvalue"]
    empty = np.array([], dtype=float)
    assert (_csv_text(header, [empty, empty, _cells([]), empty]) == _ref_csv([], header)
            == "t1,t2,verdict,binding_eigenvalue\n")


def test_csv_blocks_with_shared_column():
    # fig2's layout: per block two constants, printed once by g17_cells and
    # repeated by np.full, one pre-formatted bytes column and one array, the
    # rows of all blocks in turn
    t = np.linspace(1.0, 2.0, 7)
    y = np.sin(3.0 * t) / t
    blocks, rows = [], []
    for beta, beta_cell in zip((0.5, 2.0), g17_cells([0.5, 2.0])):
        t_cells = g17_cells(t)
        assert [c.decode() for c in t_cells] == [f"{v:.17g}" for v in t]
        for s, s_cell in zip((-1.0, 0.2), g17_cells([-1.0, 0.2])):
            blocks.append((np.full(len(t), beta_cell), np.full(len(t), s_cell), t_cells,
                           s * (beta * y)))
            rows += [(beta, s, float(tk), float(s * (beta * yk))) for tk, yk in zip(t, y)]
    header = ["beta", "slope", "t", "h"]
    assert (_csv_text(header, [np.concatenate(col) for col in zip(*blocks)])
            == _ref_csv(rows, header))
    assert g17_cells(np.array([])).tolist() == []


def test_csv_column_lengths_must_agree():
    with pytest.raises(ValueError):
        csv(["a", "b"], [np.zeros(3), np.array([b"x", b"y"])])
    with pytest.raises(ValueError):  # one column per header field
        csv(["a", "b"], [np.zeros(3)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(), st.floats(width=32), st.integers()), max_size=20))
def test_csv_any_float(cells):
    a = np.array([c[0] for c in cells], dtype=float)
    b = np.array([c[1] for c in cells], dtype=float)
    k = _cells(c[2] for c in cells)
    header = ["a", "b", "k"]
    assert _csv_text(header, [a, b, k]) == _ref_csv(cells, header)


def test_trajectory_csv():
    n = len(_EXTREMES)
    x = np.array([_EXTREMES, _EXTREMES[::-1]]).T
    v = np.array([_EXTREMES[3:] + _EXTREMES[:3], [-e for e in _EXTREMES]]).T
    traj = Trajectory(np.linspace(0.1, 1.3, n), x, v)
    one = Trajectory(np.array([0.0, 1e-300]), np.array([-0.0, 5e-324]), np.array([1.0, 2.0]))
    for tr in (traj, one):
        _, header, columns = trajectory_table("traj.csv", tr)
        assert _csv_text(header, columns) == _ref_to_csv(tr)


def _series_cases():
    rng = np.random.default_rng(5)
    t = np.linspace(1.0, 9.0, 401)
    yield "floats", [("a", t, np.sin(t) / t), ("b", t, -0.5 * np.cos(3.0 * t))], []
    yield "signed_zero_subnormal", [("z", [0.0, 5e-324, -0.0, 1e-300, 1.0],
                                     [-0.0, 0.0, 5e-324, 2.0, -1e-300])], []
    yield "wide_range", [("w", rng.uniform(-1e300, 1e300, 50), rng.uniform(-1e-3, 1e-3, 50))], []
    yield "constant", [("c", [2.0, 2.0, 2.0], [7.0, 7.0, 7.0])], []
    # integer x series, as second-variation plots by probe index
    idx = list(range(9))
    yield "integer_x", [("quadrature", idx, list(rng.normal(size=9))),
                        ("closed form", idx, np.arange(9, dtype=float) - 4.0)], []
    markers = [(float(tau), 0.0, "#000") for tau in rng.uniform(1.0, 12.0, 4)]
    yield "markers", [(f"beta={b:g}", t, np.exp(-t / b) * np.sin(b * t)) for b in (0.5, 2.0)], markers


def _as_list(v):
    return v.tolist() if isinstance(v, np.ndarray) else list(v)


@pytest.mark.parametrize("series, markers",
                         [(s, m) for _, s, m in _series_cases()],
                         ids=[name for name, _, _ in _series_cases()])
def test_line_chart_coordinates(series, markers):
    svg = _text(line_chart(series, title="t", xlabel="x", ylabel="y", markers=markers or None))
    # callers used to pass Python lists (`.tolist()` of their arrays)
    ref = _ref_chart_coords([(lbl, _as_list(xs), _as_list(ys)) for lbl, xs, ys in series],
                            markers)
    assert _chart_coords(svg) == (ref[0], [tuple(c) for c in ref[1]])


def test_ticks_end_on_a_range_of_a_few_ulps():
    # the step (1e-16) is below the resolution of 1.0: `v += step` stops moving
    ticks = _ticks(1 - 1.1e-17, 1.0000000000000002 + 1.1e-17)
    assert 1 <= len(ticks) <= 5
