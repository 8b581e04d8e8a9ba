"""First-order Bessel functions J1 and Y1, dependency-free, in float64.

Four regions:

* x < 1e-10: the leading terms J1 = x/2 and Y1 = -2/(pi x) (DLMF 10.7.3,
  10.7.4); the next terms are below 1e-19 of these, and the series would
  divide by an underflowing x * x.  Where Y1 overflows, NumericalError.
* 1e-10 <= x < 4.5: the defining power series (DLMF 10.8.1), J1 and Y1
  summed in one loop.  Here the terms stay below ~10, so the cancellation
  costs at most a digit of the absolute accuracy.
* 4.5 <= x < 20: a Taylor expansion about the nearest integer anchor
  x0 = 5..20 (|h| <= 0.5, 20 terms).  The coefficients come from the Bessel
  equation x^2 f'' + x f' + (x^2 - 1) f = 0 (DLMF 10.2.1) as a four-term
  recurrence.  The anchor values are built once at import: the series gives
  (J1, J1', Y1, Y1') at x = 4, and unit Taylor steps of 30 terms carry them
  to x = 20 in about a millisecond.
* x >= 20: Hankel asymptotic expansions (DLMF 10.17) with optimal
  truncation; at the crossover the truncation error is below 1e-16 of the
  envelope.

`_j1_y1` returns the pair (J1, Y1) with the one region dispatch, so callers
that need both at one point (the conjugate-point search) pay for one series,
one Hankel evaluation or one anchor lookup.  `bessel_j1` and `bessel_y1` are
its J1 and Y1 halves; `bessel_j1` keeps its own x/2 below 1e-10, so it also
takes x = 0 and the x where Y1 overflows.

Absolute error is about 1e-15 * max(1, |Y1|) on [0.01, 25], including
next to the zeros, where the conjugate-point search needs it; the regions
agree to better than 1e-12 at their seams (tested).  Accuracy target: 1e-10
relative on [1e-3, 1e3]; measured worst case is ~4e-12, from the Hankel
branch.
"""
from __future__ import annotations

import itertools
import math

from .errors import NumericalError

_TINY = 1e-10  # below it J1 and Y1 are their leading terms to float64
_EULER_GAMMA = 0.5772156649015329
_SERIES_MAX = 4.5
_SWITCH = 20.0
_ANCHORS = range(5, 21)  # integer Taylor anchors covering [4.5, 20)
_TERMS = 20  # Taylor terms kept per anchor (|h| <= 0.5)
_STEP_TERMS = 30  # Taylor terms of one unit step while building the anchors
_MU = 4.0  # 4 * nu^2 for nu = 1
# g_k = digamma(k+1) + digamma(k+2) = H_k + H_{k+1} - 2 gamma, summed once in the series' order
_G = list(itertools.accumulate([1 - 2 * _EULER_GAMMA] + [1 / k + 1 / (k + 1) for k in range(1, 40)]))
_SERIES_TABLE = tuple((float(k * (k + 1)), _G[k]) for k in range(1, 40))


def _series(x: float) -> tuple[float, float]:
    """(J1, Y1) from the power series; accurate for x < ~5.

    DLMF 10.8.1 specialized to order one:
    Y1(x) = (2/pi) ln(x/2) J1(x) - 2/(pi x)
            - (1/pi) sum_k (digamma(k+1)+digamma(k+2)) (-1)^k (x/2)^(2k+1) / (k!(k+1)!)
    """
    half = 0.5 * x
    q = -half * half
    term = half  # (-1)^k (x/2)^(2k+1) / (k! (k+1)!)
    j, s = term, term * _G[0]
    lim = 1e-17 * half
    for kk, g in _SERIES_TABLE:
        term *= q / kk
        j += term
        s += term * g
        if -lim < term < lim:
            break
    return j, (2.0 * math.log(half) * j - 2.0 / x - s) / math.pi


def _taylor_coeffs(x0: float, f: float, df: float, n: int) -> list:
    """First n Taylor coefficients about x0 of the order-one Bessel solution
    with f(x0) = f, f'(x0) = df, from the equation's recurrence:

    a_{k+2} = -[x0 (k+1)(2k+1) a_{k+1} + (k^2 + x0^2 - 1) a_k
                + 2 x0 a_{k-1} + a_{k-2}] / (x0^2 (k+1)(k+2))
    """
    x2 = x0 * x0
    a = [0.0, 0.0, f, df]  # a_{-2}, a_{-1}, a_0, a_1
    for k in range(n - 2):
        a.append(-(x0 * (k + 1) * (2 * k + 1) * a[k + 3] + (k * k + x2 - 1.0) * a[k + 2]
                   + 2.0 * x0 * a[k + 1] + a[k]) / (x2 * (k + 1) * (k + 2)))
    return a[2:]


def _unit_step(a: list) -> tuple[float, float]:
    """(f, f') one unit past the anchor of the coefficients a."""
    return math.fsum(a), math.fsum(k * ak for k, ak in enumerate(a))


def _build_anchors() -> tuple[tuple, tuple]:
    """Reversed (Horner-order) Taylor coefficients of J1 and Y1 at each anchor;
    the start at x = 4 differentiates `_series` term by term ((2k+1) term / x)."""
    x = _ANCHORS[0] - 1.0
    half = 0.5 * x
    q = -half * half
    term = half
    dj, ds = term, term * _G[0]
    for k, (kk, g) in enumerate(_SERIES_TABLE, start=1):
        term *= q / kk
        dj += (2 * k + 1) * term
        ds += (2 * k + 1) * term * g
        if abs(term) < 1e-17 * half:
            break
    j, y = _series(x)
    dy = (2.0 * (j + math.log(half) * dj) / x + 2.0 / (x * x) - ds / x) / math.pi
    dj /= x
    j_coeffs, y_coeffs = [], []
    for x0 in range(_ANCHORS[0] - 1, _ANCHORS[-1] + 1):
        aj = _taylor_coeffs(float(x0), j, dj, _STEP_TERMS)
        ay = _taylor_coeffs(float(x0), y, dy, _STEP_TERMS)
        if x0 >= _ANCHORS[0]:
            j_coeffs.append(tuple(reversed(aj[:_TERMS])))
            y_coeffs.append(tuple(reversed(ay[:_TERMS])))
        j, dj = _unit_step(aj)
        y, dy = _unit_step(ay)
    return tuple(j_coeffs), tuple(y_coeffs)


_J_COEFFS, _Y_COEFFS = _build_anchors()
_TAYLOR = tuple(tuple(zip(aj, ay)) for aj, ay in zip(_J_COEFFS, _Y_COEFFS))


def _taylor(x: float, x0: int) -> tuple[float, float]:
    """(J1, Y1) at x by Horner evaluation of the expansions about the anchor x0."""
    h = x - x0
    j = y = 0.0
    for aj, ay in _TAYLOR[x0 - _ANCHORS[0]]:
        j = j * h + aj
        y = y * h + ay
    return j, y


def _hankel_pq(x: float) -> tuple[float, float]:
    """Asymptotic amplitude sums P and Q, truncated at the smallest term."""
    p = 1.0
    q = 0.0
    c = 1.0  # a_k / x^k
    prev = abs(c)
    k = 1
    while k < 200:
        c = c * (_MU - (2 * k - 1) ** 2) / (8.0 * k * x)
        size = abs(c)
        if size >= prev:
            break  # divergence onset; drop the growing tail
        contrib = -c if k & 2 else c  # (-1)^(k // 2) c
        if k % 2 == 1:
            q += contrib
        else:
            p += contrib
        if size < 1e-19:
            break
        prev = size
        k += 1
    return p, q


def _asymptotic(x: float) -> tuple[float, float]:
    p, q = _hankel_pq(x)
    omega = x - 0.75 * math.pi
    amp = math.sqrt(2.0 / (math.pi * x))
    j1 = amp * (math.cos(omega) * p - math.sin(omega) * q)
    y1 = amp * (math.sin(omega) * p + math.cos(omega) * q)
    return j1, y1


def _j1_y1(x: float) -> tuple[float, float]:
    """(J1(x), Y1(x)) for x > 0 from one region dispatch."""
    x = float(x)
    if x <= 0:
        raise ValueError("bessel_y1 requires x > 0")
    if x < _TINY:
        y = -(2.0 / math.pi) / x
        if math.isinf(y):
            raise NumericalError(f"bessel_y1({x!r}) overflows float64")
        return 0.5 * x, y
    if x < _SERIES_MAX:
        return _series(x)
    if x < _SWITCH:
        return _taylor(x, int(x + 0.5))
    return _asymptotic(x)


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind, order one, for x >= 0."""
    x = float(x)
    if x < 0:
        raise ValueError("bessel_j1 requires x >= 0")
    if x < _TINY:
        return 0.5 * x  # _j1_y1 rejects x = 0 and raises where Y1 overflows
    return _j1_y1(x)[0]


def bessel_y1(x: float) -> float:
    """Bessel function of the second kind, order one; diverges as x -> 0+."""
    return _j1_y1(x)[1]
