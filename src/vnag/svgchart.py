"""Tiny SVG line charts, written out directly (no plotting library).

CSV files are the authoritative experiment output; these charts are a
convenience for eyeballing them.  Output is deterministic (coordinates
printed with printf `%.2f`; no timestamps) and streams as bytes chunks, each
polyline from `numtext.polyline`.
"""
from __future__ import annotations

import math

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]


def _upper(lo: float, hi: float) -> float:
    """hi, or above lo if the range is empty: lo + 1, or lo + |lo| * 1e-12
    where 1 is below lo's resolution."""
    if hi > lo:
        return hi
    return lo + 1.0 if lo + 1.0 > lo else lo + abs(lo) * 1e-12


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    hi = _upper(lo, hi)
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:  # a range of a few ulps: the step is below v's resolution
            break
        v += step
    return out


def line_chart(series: list, title: str = "", xlabel: str = "", ylabel: str = "",
               width: int = 720, height: int = 440, markers: list | None = None):
    """Render polyline series as an SVG, yielded as bytes chunks for
    `cli._write`.

    series: list of (label, xs, ys) triples; xs and ys are arrays or
        sequences of numbers, taken as float64.
    markers: optional list of (x, y, color) scatter points.

    Each polyline streams from `numtext.polyline`, `%.2f` per coordinate;
    the pixel arithmetic runs on float64 arrays in the order of the scalar
    `px`/`py`, so every coordinate is the double the scalar form gives.
    """
    from .numtext import polyline  # loaded with the first chart, not with vnag
    pad_l, pad_r, pad_t, pad_b = 62, 16, 34, 46
    series = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, xs, ys in series]
    if any(len(xs) != len(ys) for _, xs, ys in series):
        raise ValueError("a series has x and y of different lengths")
    marks = markers or []
    xs_all = np.concatenate([xs for _, xs, _ in series] + [[m[0] for m in marks]])
    ys_all = np.concatenate([ys for _, _, ys in series] + [[m[1] for m in marks]])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    del xs_all, ys_all  # a generator keeps its locals until the chart is written
    x_hi, y_hi = _upper(x_lo, x_hi), _upper(y_lo, y_hi)
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    def px(x):
        return pad_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return pad_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(f'<line x1="{x:.2f}" y1="{pad_t + plot_h}" x2="{x:.2f}" '
                     f'y2="{pad_t + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{pad_t + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(f'<line x1="{pad_l - 5}" y1="{y:.2f}" x2="{pad_l}" y2="{y:.2f}" '
                     'stroke="#333"/>')
        parts.append(f'<text x="{pad_l - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.4g}</text>')
        parts.append(f'<line x1="{pad_l}" y1="{y:.2f}" x2="{pad_l + plot_w}" y2="{y:.2f}" '
                     'stroke="#ddd" stroke-width="0.5"/>')
    if xlabel:
        parts.append(f'<text x="{pad_l + plot_w / 2:.1f}" y="{height - 8}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{pad_t + plot_h / 2:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 14 {pad_t + plot_h / 2:.1f})">{ylabel}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        yield "".join(f"{p}\n" for p in parts).encode() + b'<polyline points="'
        yield from polyline(px(xs), py(ys))
        parts = [f'" fill="none" stroke="{color}" stroke-width="1.4"/>']
        if label:
            ly = pad_t + 14 + 14 * idx
            parts.append(f'<line x1="{pad_l + plot_w - 120}" y1="{ly - 4}" '
                         f'x2="{pad_l + plot_w - 100}" y2="{ly - 4}" stroke="{color}" '
                         'stroke-width="2"/>')
            parts.append(f'<text x="{pad_l + plot_w - 95}" y="{ly}" '
                         f'font-family="sans-serif" font-size="11">{label}</text>')
    for m in marks:
        parts.append(f'<circle cx="{px(m[0]):.2f}" cy="{py(m[1]):.2f}" r="3.5" '
                     f'fill="{m[2] if len(m) > 2 else "#000"}"/>')
    parts.append("</svg>")
    yield "".join(f"{p}\n" for p in parts).encode()
